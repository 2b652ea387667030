//! Deterministic load harness for the cmt-serve optimization service,
//! plus the `BENCH_server.json` report it emits (an [`Artifact`]: its
//! diff and gate back `obs_diff` and `cmt-serve-bench --check`).
//!
//! The harness replays the verify corpus plus the paper kernels against
//! a server — in-process ([`ServeTransport::InProcess`], used by tests)
//! or over TCP ([`ServeTransport::Connect`], used by CI's smoke-serve
//! step) — with N concurrent clients:
//!
//! * **pass 1** covers every distinct program once (round-robin over
//!   the clients), so it is all cold computes;
//! * **passes 2+** send a seeded hot/cold mix ([`cmt_obs::SplitMix64`]
//!   over `mix_seed`): `hot_percent`% replays of pass-1 programs
//!   (memo hits) and the rest fresh generated programs (cold).
//!
//! Every reply is parsed and classified; a line that is not valid JSON
//! with a `status` of `ok`/`overloaded`/`error` counts as `malformed`,
//! and a dropped connection as a `transport_failure` — both are zero on
//! a healthy server and CI asserts exactly that. Counts and rates in
//! the report are deterministic for a fixed config (single-flight
//! memoization makes hit/miss totals independent of scheduling); the
//! latency percentiles are wall-clock and informational.

use cmt_ir::pretty::program_to_source;
use cmt_obs::json::{self, ObjectWriter, Value};
use cmt_obs::{Artifact, Findings, SplitMix64};
use cmt_serve::{ServeConfig, Server};
use cmt_suite::kernels::paper_kernels;
use cmt_verify::{corpus_seeds, generate};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Load-harness configuration.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Verify-corpus seeds in the replay set.
    pub seeds: usize,
    /// Also include the paper kernels in the replay set.
    pub kernels: bool,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total passes; pass 1 is coverage, later passes are the mix.
    pub passes: usize,
    /// Problem size sent with every request.
    pub n: i64,
    /// Base fault seed: request for corpus item `i` carries
    /// `fault_seed + i`, exercising a different deterministic
    /// [`cmt_resilience::FaultPlan`] per program. `None` disables
    /// injection.
    pub fault_seed: Option<u64>,
    /// Percentage (0–100) of pass-2+ requests that replay a pass-1
    /// program (the hot side of the mix).
    pub hot_percent: u32,
    /// Seed of the hot/cold mix PRNG.
    pub mix_seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            seeds: 32,
            kernels: true,
            clients: 4,
            passes: 2,
            n: 16,
            fault_seed: None,
            hot_percent: 100,
            mix_seed: 0x5EED,
        }
    }
}

/// How the harness reaches the server.
#[derive(Clone, Debug)]
pub enum ServeTransport {
    /// Start an in-process [`Server`] with this config and talk through
    /// [`Server::handle_line`].
    InProcess(ServeConfig),
    /// Connect each client to an already-running `cmt-serve` at
    /// `host:port`.
    Connect(String),
}

/// The `BENCH_server.json` document: deterministic request/reply
/// accounting plus informational wall-clock latency percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerBenchReport {
    /// Corpus seeds replayed.
    pub seeds: u64,
    /// Concurrent clients.
    pub clients: u64,
    /// Passes sent.
    pub passes: u64,
    /// Problem size.
    pub n: u64,
    /// Whether fault injection was on.
    pub fault_injected: bool,
    /// Base fault seed (0 when off).
    pub fault_seed: u64,
    /// Compile requests sent.
    pub requests: u64,
    /// `status:ok` replies.
    pub ok: u64,
    /// `fidelity:cached` replies.
    pub cached: u64,
    /// `fidelity:simulated` replies.
    pub simulated: u64,
    /// `fidelity:analytic` replies (degradation ladder's third rung).
    pub analytic: u64,
    /// Replies whose supervised pipeline degraded (rolled back).
    pub degraded: u64,
    /// `status:error` replies (structured failures).
    pub errors: u64,
    /// `status:overloaded` replies (explicit backpressure).
    pub overloaded: u64,
    /// Unparseable reply lines — zero on a healthy server.
    pub malformed: u64,
    /// Requests that never got a reply line — zero on a healthy server.
    pub transport_failures: u64,
    /// Compile requests sent in passes 2+.
    pub second_pass_requests: u64,
    /// Cached replies in passes 2+ (numerator of the hit-rate gate).
    pub second_pass_cached: u64,
    /// Server memo-cache hits (from its own counters).
    pub memo_hits: u64,
    /// Server memo-cache misses.
    pub memo_misses: u64,
    /// Server memo-cache insertions.
    pub memo_inserted: u64,
    /// Server memo-cache LRU evictions.
    pub memo_evictions: u64,
    /// Median round-trip latency, microseconds (wall clock).
    pub p50_us: f64,
    /// p99 round-trip latency, microseconds (wall clock).
    pub p99_us: f64,
    /// Median cold-path (non-cached reply) latency, microseconds.
    pub p50_cold_us: f64,
    /// p99 cold-path latency, microseconds (the "recorded against the
    /// committed baseline" number).
    pub p99_cold_us: f64,
}

impl ServerBenchReport {
    /// Memo hit rate over the replay passes (0 when none were sent).
    pub fn hit_rate_second_pass(&self) -> f64 {
        if self.second_pass_requests == 0 {
            0.0
        } else {
            self.second_pass_cached as f64 / self.second_pass_requests as f64
        }
    }

    /// Fraction of compile requests shed with `overloaded`.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.overloaded as f64 / self.requests as f64
        }
    }

    /// Gate: second-pass memo hit rate, applied when a replay pass ran.
    pub const MIN_HIT_RATE: f64 = 0.5;

    /// Drift threshold `cmt-serve-bench --check` compares a live run
    /// against the committed baseline with.
    pub const CHECK_THRESHOLD: f64 = 0.05;
}

impl Artifact for ServerBenchReport {
    const SUFFIX: &'static str = "server.json";

    fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_str("schema", "cmt-serve-bench-v1")
            .field_u64("seeds", self.seeds)
            .field_u64("clients", self.clients)
            .field_u64("passes", self.passes)
            .field_u64("n", self.n)
            .field_bool("fault_injected", self.fault_injected)
            .field_u64("fault_seed", self.fault_seed)
            .field_u64("requests", self.requests)
            .field_u64("ok", self.ok)
            .field_u64("cached", self.cached)
            .field_u64("simulated", self.simulated)
            .field_u64("analytic", self.analytic)
            .field_u64("degraded", self.degraded)
            .field_u64("errors", self.errors)
            .field_u64("overloaded", self.overloaded)
            .field_u64("malformed", self.malformed)
            .field_u64("transport_failures", self.transport_failures)
            .field_u64("second_pass_requests", self.second_pass_requests)
            .field_u64("second_pass_cached", self.second_pass_cached)
            .field_f64("hit_rate_second_pass", self.hit_rate_second_pass())
            .field_f64("shed_rate", self.shed_rate())
            .field_u64("memo_hits", self.memo_hits)
            .field_u64("memo_misses", self.memo_misses)
            .field_u64("memo_inserted", self.memo_inserted)
            .field_u64("memo_evictions", self.memo_evictions)
            .field_f64("p50_us", self.p50_us)
            .field_f64("p99_us", self.p99_us)
            .field_f64("p50_cold_us", self.p50_cold_us)
            .field_f64("p99_cold_us", self.p99_cold_us);
        w.finish() + "\n"
    }

    fn parse(text: &str) -> Result<ServerBenchReport, String> {
        let v = json::parse(text).map_err(|e| format!("server report: {e}"))?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != "cmt-serve-bench-v1" {
            return Err(format!("server report: unknown schema {schema:?}"));
        }
        Ok(ServerBenchReport {
            seeds: v.u64_field("seeds")?,
            clients: v.u64_field("clients")?,
            passes: v.u64_field("passes")?,
            n: v.u64_field("n")?,
            fault_injected: v
                .get("fault_injected")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            fault_seed: v.u64_field("fault_seed")?,
            requests: v.u64_field("requests")?,
            ok: v.u64_field("ok")?,
            cached: v.u64_field("cached")?,
            simulated: v.u64_field("simulated")?,
            analytic: v.u64_field("analytic")?,
            degraded: v.u64_field("degraded")?,
            errors: v.u64_field("errors")?,
            overloaded: v.u64_field("overloaded")?,
            malformed: v.u64_field("malformed")?,
            transport_failures: v.u64_field("transport_failures")?,
            second_pass_requests: v.u64_field("second_pass_requests")?,
            second_pass_cached: v.u64_field("second_pass_cached")?,
            memo_hits: v.u64_field("memo_hits")?,
            memo_misses: v.u64_field("memo_misses")?,
            memo_inserted: v.u64_field("memo_inserted")?,
            memo_evictions: v.u64_field("memo_evictions")?,
            p50_us: v.f64_field("p50_us")?,
            p99_us: v.f64_field("p99_us")?,
            p50_cold_us: v.f64_field("p50_cold_us")?,
            p99_cold_us: v.f64_field("p99_cold_us")?,
        })
    }

    /// Config fields must match; deterministic counters (relative) and
    /// the hit/shed rates (absolute) count beyond `threshold`. The
    /// wall-clock p99 cold latency is informational.
    fn diff(&self, current: &Self, threshold: f64) -> Findings {
        let mut f = Vec::new();
        let config = [
            ("seeds", self.seeds, current.seeds),
            ("clients", self.clients, current.clients),
            ("passes", self.passes, current.passes),
            ("n", self.n, current.n),
        ];
        for (name, b, c) in config {
            if b != c {
                f.push(format!("config {name} changed {b} -> {c}"));
            }
        }
        let counters = [
            ("requests", self.requests, current.requests),
            ("ok", self.ok, current.ok),
            ("cached", self.cached, current.cached),
            ("simulated", self.simulated, current.simulated),
            ("analytic", self.analytic, current.analytic),
            ("degraded", self.degraded, current.degraded),
            ("errors", self.errors, current.errors),
            ("overloaded", self.overloaded, current.overloaded),
            ("malformed", self.malformed, current.malformed),
            (
                "transport_failures",
                self.transport_failures,
                current.transport_failures,
            ),
            ("memo_hits", self.memo_hits, current.memo_hits),
            ("memo_misses", self.memo_misses, current.memo_misses),
            (
                "memo_evictions",
                self.memo_evictions,
                current.memo_evictions,
            ),
        ];
        for (name, b, c) in counters {
            if rel_drift(b as f64, c as f64) > threshold {
                f.push(format!("{name} {b} -> {c}"));
            }
        }
        let hb = self.hit_rate_second_pass();
        let hc = current.hit_rate_second_pass();
        if (hc - hb).abs() > threshold {
            f.push(format!("hit rate {hb:.4} -> {hc:.4}"));
        }
        let sb = self.shed_rate();
        let sc = current.shed_rate();
        if (sc - sb).abs() > threshold {
            f.push(format!("shed rate {sb:.4} -> {sc:.4}"));
        }
        let mut informational = Vec::new();
        if rel_drift(self.p99_cold_us, current.p99_cold_us) > threshold {
            informational.push(format!(
                "p99 cold latency {:.1}us -> {:.1}us",
                self.p99_cold_us, current.p99_cold_us
            ));
        }
        Findings {
            deterministic: f,
            informational,
        }
    }

    /// Every request answered structurally, and (when a replay pass
    /// ran) a second-pass memo hit rate of at least
    /// [`Self::MIN_HIT_RATE`].
    fn gate(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.malformed > 0 || self.transport_failures > 0 {
            v.push(format!(
                "{} malformed replies, {} transport failures (want 0/0)",
                self.malformed, self.transport_failures
            ));
        }
        let hit = self.hit_rate_second_pass();
        if self.second_pass_requests > 0 && hit < Self::MIN_HIT_RATE {
            v.push(format!(
                "second-pass hit rate {hit:.3} < {:.3}",
                Self::MIN_HIT_RATE
            ));
        }
        v
    }

    /// The load harness's deterministic fields only (latency
    /// percentiles are wall-clock and elided, like `*.ns` histograms).
    fn report(&self, out: &mut String) {
        let _ = writeln!(out, "\n## Service\n");
        let _ = writeln!(
            out,
            "{} requests over {} pass(es) × {} client(s) at n={}{}: \
             {} ok, {} overloaded, {} errors; second-pass hit rate {:.3}, shed rate {:.3}.\n",
            self.requests,
            self.passes,
            self.clients,
            self.n,
            if self.fault_injected {
                format!(" (fault seed {})", self.fault_seed)
            } else {
                String::new()
            },
            self.ok,
            self.overloaded,
            self.errors,
            self.hit_rate_second_pass(),
            self.shed_rate(),
        );
        out.push_str("| fidelity | replies |\n|---|---|\n");
        let _ = writeln!(out, "| cached | {} |", self.cached);
        let _ = writeln!(out, "| simulated | {} |", self.simulated);
        let _ = writeln!(out, "| analytic | {} |", self.analytic);
        let _ = writeln!(
            out,
            "\n{} degraded pipeline runs; memo cache: {} hits, {} misses, {} inserted, {} evicted.",
            self.degraded,
            self.memo_hits,
            self.memo_misses,
            self.memo_inserted,
            self.memo_evictions,
        );
    }
}

/// Nearest-rank percentile over an ascending-sorted sample (0 when
/// empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn rel_drift(b: f64, c: f64) -> f64 {
    if b == 0.0 && c == 0.0 {
        0.0
    } else {
        (c - b).abs() / b.abs().max(c.abs())
    }
}

/// The replay set: `seeds` verify-corpus programs plus (optionally) the
/// paper kernels, as parser-surface sources.
pub fn serve_corpus(cfg: &ServeBenchConfig) -> Vec<String> {
    let mut corpus: Vec<String> = corpus_seeds()
        .into_iter()
        .take(cfg.seeds)
        .map(|s| program_to_source(&generate(s)))
        .collect();
    if cfg.kernels {
        corpus.extend(paper_kernels().iter().map(program_to_source));
    }
    corpus
}

/// One scheduled request: which program, and whether it is part of the
/// replay (pass 2+) accounting.
#[derive(Clone, Debug)]
struct Shot {
    program_idx: Option<usize>,
    fresh_seed: u64,
    fault_seed: Option<u64>,
    second_pass: bool,
}

#[derive(Default)]
struct Tally {
    requests: u64,
    ok: u64,
    cached: u64,
    simulated: u64,
    analytic: u64,
    degraded: u64,
    errors: u64,
    overloaded: u64,
    malformed: u64,
    transport_failures: u64,
    second_pass_requests: u64,
    second_pass_cached: u64,
    lat_us: Vec<f64>,
    cold_lat_us: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.cached += other.cached;
        self.simulated += other.simulated;
        self.analytic += other.analytic;
        self.degraded += other.degraded;
        self.errors += other.errors;
        self.overloaded += other.overloaded;
        self.malformed += other.malformed;
        self.transport_failures += other.transport_failures;
        self.second_pass_requests += other.second_pass_requests;
        self.second_pass_cached += other.second_pass_cached;
        self.lat_us.extend(other.lat_us);
        self.cold_lat_us.extend(other.cold_lat_us);
    }

    fn absorb_reply(&mut self, reply: &str, second_pass: bool, micros: f64) {
        self.lat_us.push(micros);
        let Ok(v) = json::parse(reply) else {
            self.malformed += 1;
            return;
        };
        let status = v.get("status").and_then(Value::as_str).unwrap_or("");
        match status {
            "ok" => {
                self.ok += 1;
                let fidelity = v.get("fidelity").and_then(Value::as_str).unwrap_or("");
                match fidelity {
                    "cached" => {
                        self.cached += 1;
                        if second_pass {
                            self.second_pass_cached += 1;
                        }
                    }
                    "simulated" => self.simulated += 1,
                    "analytic" => self.analytic += 1,
                    _ => self.malformed += 1,
                }
                if fidelity != "cached" {
                    self.cold_lat_us.push(micros);
                }
                if v.get("degraded").and_then(Value::as_bool) == Some(true) {
                    self.degraded += 1;
                }
            }
            "overloaded" => self.overloaded += 1,
            "error" => {
                self.errors += 1;
                self.cold_lat_us.push(micros);
            }
            _ => self.malformed += 1,
        }
    }
}

enum ClientConn {
    InProcess(Arc<Server>),
    Tcp {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
}

impl ClientConn {
    fn open(transport: &ServeTransport, server: &Option<Arc<Server>>) -> Result<Self, String> {
        match transport {
            ServeTransport::InProcess(_) => match server {
                Some(s) => Ok(ClientConn::InProcess(Arc::clone(s))),
                None => Err("in-process transport without a server".to_string()),
            },
            ServeTransport::Connect(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("clone stream: {e}"))?,
                );
                Ok(ClientConn::Tcp {
                    writer: stream,
                    reader,
                })
            }
        }
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        match self {
            ClientConn::InProcess(server) => Ok(server.handle_line(line)),
            ClientConn::Tcp { writer, reader } => {
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .and_then(|()| writer.flush())
                    .map_err(|e| format!("send: {e}"))?;
                let mut reply = String::new();
                loop {
                    reply.clear();
                    match reader.read_line(&mut reply) {
                        Ok(0) => return Err("connection closed".to_string()),
                        Ok(_) => return Ok(reply.trim_end().to_string()),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(e) => return Err(format!("recv: {e}")),
                    }
                }
            }
        }
    }
}

fn request_line(id: u64, program: &str, n: i64, fault_seed: Option<u64>) -> String {
    let mut w = ObjectWriter::new();
    w.field_u64("id", id)
        .field_str("program", program)
        .field_u64("n", n.max(0) as u64);
    if let Some(s) = fault_seed {
        w.field_u64("fault_seed", s);
    }
    w.finish()
}

/// Builds the deterministic per-client schedules for one pass.
fn schedule_pass(cfg: &ServeBenchConfig, corpus_len: usize, pass: usize) -> Vec<Vec<Shot>> {
    let clients = cfg.clients.max(1);
    let mut lists: Vec<Vec<Shot>> = vec![Vec::new(); clients];
    if pass == 0 {
        for idx in 0..corpus_len {
            lists[idx % clients].push(Shot {
                program_idx: Some(idx),
                fresh_seed: 0,
                fault_seed: cfg.fault_seed.map(|s| s.wrapping_add(idx as u64)),
                second_pass: false,
            });
        }
        return lists;
    }
    let per_client = corpus_len.div_ceil(clients);
    for (c, list) in lists.iter_mut().enumerate() {
        let mut rng =
            SplitMix64::seed_from_u64(cfg.mix_seed ^ ((pass as u64) << 32) ^ (c as u64 + 1));
        for _ in 0..per_client {
            // gen_range_usize is inclusive on both ends.
            if rng.gen_range_usize(0, 99) < cfg.hot_percent.min(100) as usize {
                let idx = rng.gen_range_usize(0, corpus_len - 1);
                list.push(Shot {
                    program_idx: Some(idx),
                    fresh_seed: 0,
                    fault_seed: cfg.fault_seed.map(|s| s.wrapping_add(idx as u64)),
                    second_pass: true,
                });
            } else {
                let seed = 1_000_000 + rng.next_u64() % 1_000_000;
                list.push(Shot {
                    program_idx: None,
                    fresh_seed: seed,
                    fault_seed: cfg.fault_seed.map(|s| s.wrapping_add(seed)),
                    second_pass: true,
                });
            }
        }
    }
    lists
}

/// Runs the load harness and assembles the report. Pass barriers are
/// real: every client finishes pass `k` before any starts `k+1`, so the
/// hot side of the mix is guaranteed to replay keys that finished their
/// cold compute.
pub fn run_serve_bench(
    cfg: &ServeBenchConfig,
    transport: &ServeTransport,
) -> Result<ServerBenchReport, String> {
    let corpus = Arc::new(serve_corpus(cfg));
    if corpus.is_empty() {
        return Err("empty replay corpus".to_string());
    }
    let server = match transport {
        ServeTransport::InProcess(sc) => Some(Server::start(sc.clone())),
        ServeTransport::Connect(_) => None,
    };

    let mut tally = Tally::default();
    for pass in 0..cfg.passes.max(1) {
        let lists = schedule_pass(cfg, corpus.len(), pass);
        let mut handles = Vec::new();
        for (c, shots) in lists.into_iter().enumerate() {
            let corpus = Arc::clone(&corpus);
            let transport = transport.clone();
            let server = server.clone();
            let n = cfg.n;
            handles.push(std::thread::spawn(move || -> Tally {
                let mut t = Tally::default();
                let mut conn = match ClientConn::open(&transport, &server) {
                    Ok(conn) => conn,
                    Err(_) => {
                        t.requests = shots.len() as u64;
                        t.transport_failures = shots.len() as u64;
                        return t;
                    }
                };
                for (k, shot) in shots.iter().enumerate() {
                    let source = match shot.program_idx {
                        Some(idx) => corpus[idx].clone(),
                        None => program_to_source(&generate(shot.fresh_seed)),
                    };
                    let id = (pass as u64) << 32 | (c as u64) << 16 | k as u64;
                    let line = request_line(id, &source, n, shot.fault_seed);
                    t.requests += 1;
                    if shot.second_pass {
                        t.second_pass_requests += 1;
                    }
                    let t0 = Instant::now();
                    match conn.roundtrip(&line) {
                        Ok(reply) => {
                            let micros = t0.elapsed().as_secs_f64() * 1e6;
                            t.absorb_reply(&reply, shot.second_pass, micros);
                        }
                        Err(_) => t.transport_failures += 1,
                    }
                }
                t
            }));
        }
        for h in handles {
            match h.join() {
                Ok(t) => tally.merge(t),
                Err(_) => return Err("client thread panicked".to_string()),
            }
        }
    }

    // Memo counters come from the server itself (single source of
    // truth): directly in-process, via the stats op over TCP.
    let memo = match (&server, transport) {
        (Some(s), _) => {
            let m = s.memo_stats();
            (m.hits, m.misses, m.inserted, m.evictions)
        }
        (None, ServeTransport::Connect(_)) => {
            let mut conn = ClientConn::open(transport, &server)?;
            let reply = conn.roundtrip(r#"{"op":"stats"}"#)?;
            let v = json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
            let m = |k: &str| {
                v.get("memo")
                    .and_then(|m| m.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            (m("hits"), m("misses"), m("inserted"), m("evictions"))
        }
        (None, ServeTransport::InProcess(_)) => (0, 0, 0, 0),
    };
    if let Some(s) = &server {
        s.shutdown();
    }

    let mut lat = tally.lat_us;
    lat.sort_by(f64::total_cmp);
    let mut cold = tally.cold_lat_us;
    cold.sort_by(f64::total_cmp);
    Ok(ServerBenchReport {
        seeds: cfg.seeds as u64,
        clients: cfg.clients as u64,
        passes: cfg.passes as u64,
        n: cfg.n.max(0) as u64,
        fault_injected: cfg.fault_seed.is_some(),
        fault_seed: cfg.fault_seed.unwrap_or(0),
        requests: tally.requests,
        ok: tally.ok,
        cached: tally.cached,
        simulated: tally.simulated,
        analytic: tally.analytic,
        degraded: tally.degraded,
        errors: tally.errors,
        overloaded: tally.overloaded,
        malformed: tally.malformed,
        transport_failures: tally.transport_failures,
        second_pass_requests: tally.second_pass_requests,
        second_pass_cached: tally.second_pass_cached,
        memo_hits: memo.0,
        memo_misses: memo.1,
        memo_inserted: memo.2,
        memo_evictions: memo.3,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        p50_cold_us: percentile(&cold, 0.50),
        p99_cold_us: percentile(&cold, 0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeBenchConfig {
        ServeBenchConfig {
            seeds: 4,
            kernels: false,
            clients: 2,
            passes: 2,
            n: 8,
            ..ServeBenchConfig::default()
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = run_serve_bench(
            &small_cfg(),
            &ServeTransport::InProcess(ServeConfig::default()),
        )
        .expect("bench runs");
        assert_eq!(report.malformed, 0);
        assert_eq!(report.transport_failures, 0);
        assert_eq!(report.requests, 8);
        // Pure replay (hot_percent 100): pass 2 is all cached.
        assert!(report.hit_rate_second_pass() >= 0.99, "{report:?}");
        let parsed = ServerBenchReport::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(report.diff(&parsed, 0.0), Findings::default());
    }

    #[test]
    fn diff_flags_hit_rate_and_count_drift() {
        let report = run_serve_bench(
            &small_cfg(),
            &ServeTransport::InProcess(ServeConfig::default()),
        )
        .expect("bench runs");
        let mut other = report.clone();
        other.second_pass_cached = 0;
        other.overloaded += 4;
        other.p99_cold_us *= 100.0;
        let findings = report.diff(&other, 0.05);
        let det = &findings.deterministic;
        assert!(det.iter().any(|f| f.contains("hit rate")), "{det:?}");
        assert!(det.iter().any(|f| f.contains("overloaded")), "{det:?}");
        // Wall-clock drift is informational only, never deterministic.
        assert_eq!(findings.informational.len(), 1, "{findings:?}");
        assert!(findings.informational[0].contains("p99 cold latency"));
        assert!(!det.iter().any(|f| f.contains("latency")), "{det:?}");
    }

    #[test]
    fn fault_injected_mix_still_answers_every_request() {
        let cfg = ServeBenchConfig {
            fault_seed: Some(7),
            hot_percent: 75,
            ..small_cfg()
        };
        let report = run_serve_bench(&cfg, &ServeTransport::InProcess(ServeConfig::default()))
            .expect("bench runs");
        assert_eq!(report.malformed, 0);
        assert_eq!(report.transport_failures, 0);
        assert_eq!(
            report.ok + report.errors + report.overloaded,
            report.requests
        );
        assert!(report.fault_injected);
    }
}
