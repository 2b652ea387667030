//! `serve_hot` and `serve_cold`: an in-process `cmt_serve::Server` with
//! one worker and default queue, degrade and memo settings, driven by
//! one closed-loop client through `Server::handle_line`: the client
//! sends its next request only after the reply, as a compile caller that
//! waits does.
//!
//! Every pass starts a fresh server and warms its memo with 64 corpus
//! programs and the 14 paper kernels (set-up). Then the client replays
//! one seeded schedule at n=24 without faults:
//!
//! * `serve_hot` sends 4000 requests, each for a warm program drawn by
//!   the seed, so every reply comes from the memo;
//! * `serve_cold` sends one request for each of 120 programs the server
//!   has not seen, in seeded order, so every reply is computed and
//!   published to the memo.
//!
//! The classes are not mixed in one workload: no measured request
//! distribution exists to take a ratio from, and with one class per
//! workload each workload's latencies belong to that class alone.
//!
//! One client and one worker, not one of each per core: with two of
//! each, a hot round trip mostly waits for an idle virtual CPU to be
//! woken, which the host schedules. On a 2-vCPU KVM guest the
//! run-to-run spreads of the hot metrics were 0.22–0.33 with two of
//! each and 0.08–0.12 with one of each. Parallel scaling is not what
//! these workloads measure.
//!
//! The oracle: every reply, warm-up included, must equal its program's
//! line in `expected/<workload>.txt`, apart from the request id it
//! echoes and `fidelity`, which says whether the memo answered.

use crate::layers::{request_line, ServeCounts};
use crate::trace::Recorder;
use crate::{
    another_pass, fastest, finish, least, median, out_dir, Config, Measured, Oracle, Outcome, Rng,
};
use cmt_ir::pretty::program_to_source;
use cmt_ir::program::Program;
use cmt_serve::{ServeConfig, Server};
use cmt_suite::kernels::paper_kernels;
use cmt_verify::{corpus_seeds, generate};
use std::time::Instant;

/// Problem size of every request.
const N: i64 = 24;
/// Requests per pass of each workload.
const HOT_REQUESTS: usize = 4000;
const COLD_REQUESTS: usize = 120;
/// Generator seeds of the programs `serve_cold` asks for: a fixed pool,
/// far from the verify corpus, so every run asks for the same cold
/// work. Generated programs range from a few accesses to millions at
/// n=24, and a seed-drawn pool would change the cold cost from run to
/// run.
const FRESH_SEEDS: u64 = 0x5EED_0000_0000;

/// The programs and the request order of one run.
struct Schedule {
    programs: Vec<Program>,
    /// Compile request line per program; the id is the program index.
    lines: Vec<String>,
    /// Programs `0..warm` warm the memo during set-up.
    warm: usize,
    /// Program index of each request, in send order.
    shots: Vec<usize>,
}

fn schedule(seed: u64, smoke: bool, hot: bool) -> Schedule {
    let (corpus, kernels, hot_requests, cold_requests) = if smoke {
        (2, 2, 12, 4)
    } else {
        (64, 14, HOT_REQUESTS, COLD_REQUESTS)
    };
    let mut programs: Vec<Program> = corpus_seeds()
        .into_iter()
        .take(corpus)
        .map(generate)
        .collect();
    programs.extend(paper_kernels().into_iter().take(kernels));
    let warm = programs.len();
    let mut rng = Rng::new(seed);
    let shots = if hot {
        (0..hot_requests).map(|_| rng.below(warm)).collect()
    } else {
        programs.extend((0..cold_requests).map(|k| generate(FRESH_SEEDS + k as u64)));
        let mut shots: Vec<usize> = (warm..programs.len()).collect();
        rng.shuffle(&mut shots);
        shots
    };
    let lines = programs
        .iter()
        .enumerate()
        .map(|(k, p)| request_line(k as u64, &program_to_source(p), N))
        .collect();
    Schedule {
        programs,
        lines,
        warm,
        shots,
    }
}

/// One reply as the client saw it.
struct Reply {
    program: usize,
    ns: u64,
    text: String,
}

/// What one pass produced.
struct Pass {
    setup_s: f64,
    warmup: Vec<Reply>,
    /// Replies to the schedule, in send order.
    replies: Vec<Reply>,
    /// Wall time of the schedule, ns.
    wall_ns: u64,
    rec: Recorder,
    counts: ServeCounts,
}

/// Sends the requests for `programs` one after another.
fn client(
    server: &Server,
    sched: &Schedule,
    programs: impl Iterator<Item = usize>,
    rec: &mut Recorder,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    for (slot, program) in programs.enumerate() {
        rec.set_item(slot as u64);
        let span = rec.open("serve.request");
        let t = Instant::now();
        let text = server.handle_line(&sched.lines[program]);
        let ns = t.elapsed().as_nanos() as u64;
        let hot = text.contains("\"fidelity\":\"cached\"");
        rec.close(
            span,
            Some(if hot { "serve.hot" } else { "serve.cold" }),
            &[],
        );
        replies.push(Reply { program, ns, text });
    }
    replies
}

/// One pass: set-up (server start, memo warm-up), then the timed
/// schedule, then the server's drain.
fn pass(sched: &Schedule, traced: bool, epoch: Instant) -> Pass {
    let t = Instant::now();
    let server = Server::start(ServeConfig {
        workers: 1,
        obs_dir: Some(out_dir()),
        ..ServeConfig::default()
    });
    let warmup = client(&server, sched, 0..sched.warm, &mut Recorder::disabled());
    let setup_s = t.elapsed().as_secs_f64();

    let mut rec = if traced {
        Recorder::new(epoch, 1)
    } else {
        Recorder::disabled()
    };
    let t = Instant::now();
    let replies = client(&server, sched, sched.shots.iter().copied(), &mut rec);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let mut counts = ServeCounts {
        memo: server.memo_stats(),
        ..ServeCounts::default()
    };
    server.shutdown();
    for r in &replies {
        counts.tally(&r.text);
    }
    Pass {
        setup_s,
        warmup,
        replies,
        wall_ns,
        rec,
        counts,
    }
}

/// A reply to request `id` without the `id` it echoes and without its
/// `fidelity`, which depends on whether the memo answered; everything
/// else must repeat for the same program.
fn answer(reply: &str, id: usize) -> String {
    ["cached", "simulated", "analytic"]
        .iter()
        .fold(reply.replacen(&format!("\"id\":{id},"), "", 1), |r, f| {
            r.replace(&format!("\"fidelity\":\"{f}\","), "")
        })
}

/// Runs `serve_hot` (`hot`) or `serve_cold`.
pub(crate) fn run(cfg: &Config, hot: bool) -> Result<Outcome, String> {
    let workload = if hot { "serve_hot" } else { "serve_cold" };
    let epoch = Instant::now();
    let sched = schedule(cfg.seed, cfg.smoke, hot);
    let oracle = Oracle::committed(workload);
    let mut outputs = vec![String::new(); sched.programs.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups = Vec::new();
    // Round trips of each request of the schedule, untraced passes.
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); sched.shots.len()];
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut recs = Vec::new();
    let mut traced_counts = None;
    let mut passes = 0;
    let started = Instant::now();
    while another_pass(cfg, passes, started) {
        let is_traced = cfg.traced_pass(passes);
        let p = pass(&sched, is_traced, epoch);
        passes += 1;
        setups.push(p.setup_s);
        for r in p.warmup.iter().chain(&p.replies) {
            let name = sched.programs[r.program].name();
            let line = format!("{name} {}", answer(&r.text, r.program));
            attempted += 1;
            if !(r.text.contains("\"status\":\"ok\"") && oracle.accepts(&line)) {
                failed += 1;
            }
            outputs[r.program] = line;
        }
        if is_traced {
            traced_walls.push(p.wall_ns as f64);
            recs.push(p.rec);
            traced_counts = Some(p.counts);
        } else {
            untraced_walls.push(p.wall_ns as f64);
            for (slot, r) in p.replies.iter().enumerate() {
                untraced[slot].push(r.ns as f64);
            }
        }
    }

    let unit_ns = fastest(&untraced);
    // A pass made of every request's fastest round trip.
    let pass_ns = unit_ns.iter().sum::<u64>() as f64;
    let measured = Measured {
        attempted,
        failed,
        outputs: outputs.into_iter().filter(|l| !l.is_empty()).collect(),
        setup_s: median(&setups),
        items_per_s: sched.shots.len() as f64 / (pass_ns / 1e9),
        unit_ns,
        recs,
        traced_passes: traced_walls.len(),
        traced_wall_ns: traced_walls.iter().sum::<f64>() as u64,
        overhead: least(&traced_walls) / least(&untraced_walls) - 1.0,
        serve: traced_counts,
    };
    finish(workload, cfg, measured, &sched.programs, N)
}
