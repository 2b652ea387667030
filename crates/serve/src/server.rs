//! The hardened compile server: bounded admission, worker pool,
//! degradation ladder, panic containment, and drain-on-shutdown.
//!
//! Request flow, end to end:
//!
//! 1. **Admission** ([`Server::handle_line`]): oversized or malformed
//!    lines get structured `error` replies; past the queue's high-water
//!    mark (or once draining) requests are shed with `overloaded` —
//!    backpressure is explicit, never a hang or a drop.
//! 2. **Queue → worker**: admitted jobs wait on the bounded queue; the
//!    worker pool (sized by `CMT_JOBS`, the shared cmt-obs knob) pops
//!    in FIFO order.
//! 3. **Memoization** (see [`crate::memo`]): the exact front maps a
//!    program text seen before to its canonical form without parsing;
//!    a new text is parsed and canonicalized once. Warm keys answer
//!    `cached`; duplicates of an in-flight key wait for its result
//!    instead of recomputing (single-flight).
//! 4. **Cold path**: the parsed program (parsed now if the front
//!    answered) through the supervised pipeline under the request's
//!    deadline/fault plan, then `ShardedCache` simulation — or the
//!    analytic fold when the admission depth sat past the degrade mark
//!    or the deadline is already spent (`fidelity: analytic`).
//! 5. **Containment**: the whole job runs under `catch_unwind`; a
//!    poisoned request writes a quarantine reproducer, answers a
//!    structured `error`, and the server keeps serving.
//! 6. **Drain**: [`Server::begin_shutdown`] stops admission,
//!    [`Server::shutdown`] waits for the queue to empty, joins the
//!    workers (in-flight requests all get their replies), and
//!    [`Server::flush_artifacts`] persists `server.*` counters.

use crate::answer::compute_cold;
use crate::memo::{Canonical, FlightGuard, MemoCache, MemoKey, MemoStats, Route};
use crate::protocol::{
    error_response, ok_response, overloaded_response, CompileRequest, Fidelity, Request,
    MAX_LINE_BYTES,
};
use cmt_ir::canon::canonical_source;
use cmt_ir::parse::parse_program;
use cmt_ir::program::Program;
use cmt_obs::json::ObjectWriter;
use cmt_obs::{cmt_jobs, CollectSink, ObsSink, SharedSink};
use cmt_resilience::silence_supervised_panics;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. Defaults are sized for the load harness; the
/// binary exposes each as a flag (see `docs/SERVICE.md`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads; `0` means the shared `CMT_JOBS` pool width.
    pub workers: usize,
    /// Admission high-water mark: requests arriving while this many
    /// are queued are shed with `overloaded`.
    pub queue_capacity: usize,
    /// Degrade mark: cold requests admitted at a depth strictly above
    /// this run the analytic rung instead of simulation.
    pub degrade_depth: usize,
    /// Memo cache bound, in entries (LRU eviction past it).
    pub memo_capacity: usize,
    /// Default per-request deadline in milliseconds (`0` = none).
    pub default_deadline_ms: u64,
    /// Problem size when a request omits `n`.
    pub default_n: i64,
    /// Enable the `panic`/`sleep` chaos ops (tests and load harness
    /// only; the binary requires `--chaos`).
    pub chaos_ops: bool,
    /// Artifact directory override; `None` uses `CMT_OBS_DIR` or
    /// `results/`.
    pub obs_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            degrade_depth: 8,
            memo_capacity: 4096,
            default_deadline_ms: 2000,
            default_n: 64,
            chaos_ops: false,
            obs_dir: None,
        }
    }
}

struct Job {
    req: Request,
    raw: String,
    id: u64,
    /// Queue depth at admission (this job included) — the pressure
    /// signal for the degradation ladder.
    depth: usize,
    reply: mpsc::Sender<String>,
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The long-running optimization service. Create with
/// [`Server::start`], talk to it with [`Server::handle_line`] (the
/// in-process client) or [`Server::listen`] (TCP).
pub struct Server {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    memo: MemoCache,
    obs: SharedSink,
    accepting: AtomicBool,
    stop: AtomicBool,
    quarantine_seq: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    #[cfg(test)]
    parses: AtomicU64,
    #[cfg(test)]
    renders: AtomicU64,
}

impl Server {
    /// Starts the worker pool and returns the running server.
    pub fn start(cfg: ServeConfig) -> Arc<Server> {
        silence_supervised_panics();
        let workers = if cfg.workers == 0 {
            cmt_jobs()
        } else {
            cfg.workers
        };
        let server = Arc::new(Server {
            memo: MemoCache::new(cfg.memo_capacity),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            obs: SharedSink::new(),
            accepting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            quarantine_seq: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            #[cfg(test)]
            parses: AtomicU64::new(0),
            #[cfg(test)]
            renders: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let srv = Arc::clone(&server);
            handles.push(std::thread::spawn(move || srv.worker_loop()));
        }
        *lock_ok(&server.workers) = handles;
        server
    }

    /// Whether the server still admits new requests.
    pub fn accepting(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    /// Stops admission; queued and in-flight requests still finish.
    pub fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::SeqCst);
    }

    /// Full drain: stop admission, let the queue empty, join every
    /// worker. Every request admitted before the call gets its reply.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        loop {
            if lock_ok(&self.queue).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        let handles = std::mem::take(&mut *lock_ok(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The shared observability sink (counters, remarks, spans).
    pub fn obs(&self) -> &SharedSink {
        &self.obs
    }

    /// Deterministic memo-cache counters.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The in-process client: one request line in, one response line
    /// out (no trailing newline). Never panics, never blocks past the
    /// in-flight work it admitted.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        let mut obs = self.obs.clone();
        obs.counter("server.requests", 1);
        if line.len() > MAX_LINE_BYTES {
            obs.counter("server.errors", 1);
            return error_response(0, "request line too long");
        }
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                obs.counter("server.errors", 1);
                return error_response(0, &e);
            }
        };
        let resp = match req {
            Request::Op { ref op, id, .. } => match op.as_str() {
                "ping" => {
                    let mut w = ObjectWriter::new();
                    w.field_u64("id", id)
                        .field_str("status", "ok")
                        .field_str("op", "pong");
                    w.finish()
                }
                "stats" => self.stats_response(id),
                "shutdown" => {
                    self.begin_shutdown();
                    let mut w = ObjectWriter::new();
                    w.field_u64("id", id)
                        .field_str("status", "ok")
                        .field_str("op", "draining");
                    w.finish()
                }
                "panic" | "sleep" if self.cfg.chaos_ops => self.enqueue(req, line, id, &mut obs),
                other => {
                    obs.counter("server.errors", 1);
                    error_response(id, &format!("unknown op: {other}"))
                }
            },
            Request::Compile(ref c) => {
                let id = c.id;
                self.enqueue(req, line, id, &mut obs)
            }
        };
        obs.span_ns("server.latency.ns", t0.elapsed().as_nanos() as u64);
        resp
    }

    /// Bounded admission: shed past the high-water mark or once
    /// draining, otherwise queue and wait for the worker's reply.
    fn enqueue(&self, req: Request, raw: &str, id: u64, obs: &mut SharedSink) -> String {
        if !self.accepting() {
            obs.counter("server.shed", 1);
            return overloaded_response(id, "draining", 0, self.cfg.queue_capacity);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock_ok(&self.queue);
            let depth = q.len();
            if depth >= self.cfg.queue_capacity {
                drop(q);
                obs.counter("server.shed", 1);
                return overloaded_response(id, "queue full", depth, self.cfg.queue_capacity);
            }
            q.push_back(Job {
                req,
                raw: raw.to_string(),
                id,
                depth: depth + 1,
                reply: tx,
            });
        }
        self.queue_cv.notify_one();
        match rx.recv() {
            Ok(resp) => resp,
            Err(_) => {
                // A worker vanished without replying — only possible if
                // the pool was torn down around an in-flight job.
                obs.counter("server.errors", 1);
                error_response(id, "worker pool unavailable")
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock_ok(&self.queue);
                loop {
                    if let Some(j) = q.pop_front() {
                        break Some(j);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = match self.queue_cv.wait_timeout(q, Duration::from_millis(50)) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            };
            let Some(job) = job else { return };
            let response = self.run_contained(&job);
            let _ = job.reply.send(response);
        }
    }

    /// Per-request panic containment: a poisoned request quarantines
    /// its reproducer and answers a structured error; the worker (and
    /// the server) keep going.
    fn run_contained(&self, job: &Job) -> String {
        match catch_unwind(AssertUnwindSafe(|| self.process(job))) {
            Ok(resp) => resp,
            Err(payload) => {
                let msg = payload_message(payload.as_ref());
                let mut obs = self.obs.clone();
                obs.counter("server.panics", 1);
                obs.counter("server.errors", 1);
                self.quarantine_request(&job.raw, &msg);
                error_response(job.id, &format!("panic: {msg}"))
            }
        }
    }

    fn process(&self, job: &Job) -> String {
        match &job.req {
            Request::Op { op, ms, id } => match op.as_str() {
                "panic" => panic!("injected request panic (chaos op)"),
                "sleep" => {
                    std::thread::sleep(Duration::from_millis((*ms).min(10_000)));
                    let mut w = ObjectWriter::new();
                    w.field_u64("id", *id)
                        .field_str("status", "ok")
                        .field_str("op", "slept");
                    w.finish()
                }
                other => error_response(*id, &format!("unknown op: {other}")),
            },
            Request::Compile(c) => self.process_compile(c, job.depth),
        }
    }

    /// Parses the request's program; the error carries the parser's
    /// line-numbered message.
    fn parse(&self, c: &CompileRequest) -> Result<Program, String> {
        #[cfg(test)]
        self.parses.fetch_add(1, Ordering::SeqCst);
        parse_program(&c.program).map_err(|e| format!("parse: {e}"))
    }

    fn canonicalize(&self, program: &Program) -> Canonical {
        #[cfg(test)]
        self.renders.fetch_add(1, Ordering::SeqCst);
        Canonical::new(canonical_source(program))
    }

    fn process_compile(&self, c: &CompileRequest, depth: usize) -> String {
        let mut obs = self.obs.clone();
        // A text the front has seen needs no parse to be routed; a new
        // one is parsed and canonicalized once, here.
        let (canon, parsed) = match self.memo.front(&c.program) {
            Some(canon) => (canon, None),
            None => match self.parse(c) {
                Ok(program) => {
                    let canon = self.memo.remember(&c.program, self.canonicalize(&program));
                    (canon, Some(program))
                }
                Err(e) => {
                    obs.counter("server.errors", 1);
                    return error_response(c.id, &e);
                }
            },
        };
        let n = c.n.unwrap_or(self.cfg.default_n);
        if n < 1 {
            obs.counter("server.errors", 1);
            return error_response(c.id, "n must be >= 1");
        }
        let key = MemoKey {
            canon: Arc::clone(&canon.source),
            n,
            fault_seed: c.fault_seed,
        };
        match self.memo.route(&key) {
            Route::Hit(answer) => {
                obs.counter("server.fidelity.cached", 1);
                ok_response(c.id, Fidelity::Cached, &answer)
            }
            Route::Wait(flight) => {
                obs.counter("server.coalesced", 1);
                match flight.wait() {
                    Ok(answer) => {
                        obs.counter("server.fidelity.cached", 1);
                        ok_response(c.id, Fidelity::Cached, &answer)
                    }
                    Err(e) => {
                        obs.counter("server.errors", 1);
                        error_response(c.id, &e)
                    }
                }
            }
            Route::Compute(flight) => {
                let mut guard = FlightGuard::new(&self.memo, key.clone(), Arc::clone(&flight));
                let t0 = Instant::now();
                let pressure = depth > self.cfg.degrade_depth;
                let mut sink = CollectSink::new();
                let program = match parsed {
                    Some(program) => Ok(program),
                    None => self.parse(c),
                };
                let outcome = program.and_then(|program| {
                    compute_cold(
                        c,
                        &program,
                        canon.key,
                        n,
                        self.cfg.default_deadline_ms,
                        pressure,
                        &mut sink,
                    )
                });
                self.obs.absorb(sink);
                let resp = match outcome {
                    Ok(cold) => {
                        self.memo.publish(&key, &flight, Ok(cold.answer.clone()));
                        guard.defuse();
                        match cold.answer.computed {
                            Fidelity::Analytic => obs.counter("server.fidelity.analytic", 1),
                            _ => obs.counter("server.fidelity.simulated", 1),
                        }
                        if cold.run.degraded() {
                            obs.counter("server.degraded", 1);
                        }
                        ok_response(c.id, cold.answer.computed, &cold.answer)
                    }
                    Err(e) => {
                        self.memo.publish(&key, &flight, Err(e.clone()));
                        guard.defuse();
                        obs.counter("server.errors", 1);
                        error_response(c.id, &e)
                    }
                };
                obs.span_ns("server.cold.ns", t0.elapsed().as_nanos() as u64);
                resp
            }
        }
    }

    fn stats_response(&self, id: u64) -> String {
        let m = self.memo_stats();
        let snap = self.obs.snapshot();
        let c = |name: &str| snap.metrics.counter_value(name);
        let mut w = ObjectWriter::new();
        w.field_u64("id", id)
            .field_str("status", "ok")
            .field_str("op", "stats")
            .field_u64("requests", c("server.requests"))
            .field_u64("shed", c("server.shed"))
            .field_u64("errors", c("server.errors"))
            .field_u64("panics", c("server.panics"))
            .field_u64("degraded", c("server.degraded"))
            .field_u64("cached", c("server.fidelity.cached"))
            .field_u64("simulated", c("server.fidelity.simulated"))
            .field_u64("analytic", c("server.fidelity.analytic"))
            .field_raw("memo", &m.to_json());
        w.finish()
    }

    fn obs_dir(&self) -> PathBuf {
        match &self.cfg.obs_dir {
            Some(d) => d.clone(),
            None => std::env::var_os("CMT_OBS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results")),
        }
    }

    /// Writes a self-contained reproducer for a request that panicked
    /// its worker: the raw line plus the panic message, under
    /// `<obs-dir>/quarantine/`. Failures to write are swallowed —
    /// quarantine must never take down the containment path itself.
    fn quarantine_request(&self, raw: &str, message: &str) {
        let seq = self.quarantine_seq.fetch_add(1, Ordering::SeqCst);
        let dir = self.obs_dir().join("quarantine");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("serve_request_{seq}.txt"));
        let body = format!(
            "cmt-serve quarantined request reproducer\npanic: {message}\n\n== request line ==\n{raw}\n",
        );
        let _ = std::fs::write(path, body);
    }

    /// Persists `{name}.metrics.json` (server counters, latency
    /// histograms, memo stats) and `{name}.remarks.jsonl` under the
    /// artifact directory — the flush step of drain-on-shutdown.
    pub fn flush_artifacts(&self, name: &str) -> std::io::Result<()> {
        let dir = self.obs_dir();
        std::fs::create_dir_all(&dir)?;
        let mut snap = self.obs.snapshot();
        let m = self.memo_stats();
        snap.metrics.counter("server.memo.hits", m.hits);
        snap.metrics.counter("server.memo.misses", m.misses);
        snap.metrics.counter("server.memo.inserted", m.inserted);
        snap.metrics.counter("server.memo.evictions", m.evictions);
        snap.metrics.counter("server.memo.entries", m.entries);
        std::fs::write(
            dir.join(format!("{name}.metrics.json")),
            snap.metrics.to_json(),
        )?;
        std::fs::write(
            dir.join(format!("{name}.remarks.jsonl")),
            snap.remarks_jsonl(),
        )?;
        Ok(())
    }

    /// TCP front end: accepts connections until shutdown begins, one
    /// thread per connection, newline-delimited requests in, responses
    /// out in order. Returns once draining and every connection thread
    /// has exited.
    pub fn listen(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while self.accepting() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let srv = Arc::clone(self);
                    conns.push(std::thread::spawn(move || srv.serve_conn(stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }

    fn serve_conn(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = LineReader::new(stream);
        loop {
            match reader.next_line() {
                LineRead::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let resp = self.handle_line(&line);
                    if writer
                        .write_all(format!("{resp}\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                LineRead::NotYet => {
                    if !self.accepting() {
                        return;
                    }
                }
                LineRead::TooLong => {
                    let resp = error_response(0, "request line too long");
                    let _ = writer.write_all(format!("{resp}\n").as_bytes());
                    return;
                }
                LineRead::Eof | LineRead::Closed => return,
            }
        }
    }
}

enum LineRead {
    Line(String),
    /// No complete line yet (read timeout); poll again.
    NotYet,
    TooLong,
    Eof,
    Closed,
}

/// Bounded, timeout-tolerant line reader: accumulates across read
/// timeouts without losing partial lines, and cuts the connection when
/// a single line exceeds [`MAX_LINE_BYTES`] — a slow or hostile client
/// can never balloon server memory.
struct LineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
        }
    }

    fn next_line(&mut self) -> LineRead {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > MAX_LINE_BYTES {
                self.buf.clear();
                return LineRead::TooLong;
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        LineRead::Eof
                    } else {
                        // Final unterminated line.
                        let line = std::mem::take(&mut self.buf);
                        LineRead::Line(String::from_utf8_lossy(&line).into_owned())
                    };
                }
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineRead::NotYet;
                }
                Err(_) => return LineRead::Closed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_obs::json::{self, Value};

    const PROGRAM: &str = "PROGRAM p\nPARAM N\nREAL A(N)\nDO I = 1, N\n  A(I) = 0.0";
    /// `PROGRAM` with every identifier renamed.
    const RENAMED: &str = "PROGRAM q\nPARAM M\nREAL B(M)\nDO J = 1, M\n  B(J) = 0.0";

    fn line(program: &str, n: u64) -> String {
        let mut w = ObjectWriter::new();
        w.field_u64("id", 1)
            .field_str("program", program)
            .field_u64("n", n);
        w.finish()
    }

    /// Sends one request; returns the reply's fidelity and the parses
    /// and canonical renders the server spent on it.
    fn send(server: &Server, line: &str) -> (String, u64, u64) {
        let parses = server.parses.load(Ordering::SeqCst);
        let renders = server.renders.load(Ordering::SeqCst);
        let reply = json::parse(&server.handle_line(line)).expect("valid json");
        let fidelity = reply.get("fidelity").and_then(Value::as_str).unwrap_or("");
        (
            fidelity.to_string(),
            server.parses.load(Ordering::SeqCst) - parses,
            server.renders.load(Ordering::SeqCst) - renders,
        )
    }

    #[test]
    fn the_front_spares_parses_and_renders_of_seen_texts() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let r = |fidelity: &str, parses, renders| (fidelity.to_string(), parses, renders);
        // Cold: parsed and rendered once, not once more for the answer.
        assert_eq!(send(&server, &line(PROGRAM, 8)), r("simulated", 1, 1));
        // Repeated: the front routes it, the memo answers.
        assert_eq!(send(&server, &line(PROGRAM, 8)), r("cached", 0, 0));
        // A new text of a warm program: canonicalized, then a memo hit.
        assert_eq!(send(&server, &line(RENAMED, 8)), r("cached", 1, 1));
        // A warm text at a new n: parsed for the cold path, not rendered.
        assert_eq!(send(&server, &line(PROGRAM, 9)), r("simulated", 1, 0));
        let s = server.memo_stats();
        assert_eq!((s.hits, s.misses, s.inserted), (2, 2, 2));
        server.shutdown();
    }
}
