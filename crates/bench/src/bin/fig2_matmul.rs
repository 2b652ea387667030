//! Regenerates Figure 2: matrix-multiply loop-order ranking.

use cmt_locality::pass::Pipeline;
use cmt_obs::{CollectSink, TraceSession, Tracing};
use std::process::ExitCode;

/// Pinned shard count for the artifact-producing simulation, so the
/// committed baseline `shard.*` counters don't depend on the host's
/// core count.
const SHARDS: usize = 4;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let (text, rows) = cmt_bench::tables::fig2_matmul(n);
    println!("{text}");
    let best = rows
        .iter()
        .min_by(|a, b| a.cycles.cmp(&b.cycles))
        .expect("six orders");
    println!("fastest by cycle model: {} (paper: JKI)", best.name);

    // Observability artifacts: remarks from optimizing the IJK kernel,
    // per-pass timings, and an attributed, set-sharded simulation of the
    // result (`shard.*` counters next to the per-array ones). With
    // CMT_TRACE set, the same run also records a Chrome Trace (pass and
    // nest spans on the main track, the simulation with its per-shard
    // slices and miss-rate counter series on its own track).
    let mut p = cmt_suite::kernels::matmul("IJK");
    let sim_n = n.min(128);
    let pipeline = Pipeline::paper_default(4);
    let mut sink;
    if cmt_bench::trace_enabled() {
        let mut session = TraceSession::new();
        let mut traced = Tracing::new(CollectSink::new(), session.main());
        let reports = pipeline.run_observed(&mut p, &mut traced);
        sink = traced.inner;
        for r in &reports {
            println!("[pass] {}: {}", r.name, r.summary);
        }
        let mut track = session.track("sim");
        let mut sim = cmt_bench::simulate_observed(&p, sim_n, SHARDS, 10_000, Some(&mut track));
        session.absorb(track);
        sim.export_metrics(&mut sink.metrics, "fig2.matmul_opt");
        session.validate().expect("trace invariants");
        match cmt_bench::write_trace_json("fig2_matmul", &session.to_chrome_json()) {
            Ok(path) => println!("[obs] trace:    {}", path.display()),
            Err(e) => {
                eprintln!("fig2_matmul: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        sink = CollectSink::new();
        let reports = pipeline.run_observed(&mut p, &mut sink);
        for r in &reports {
            println!("[pass] {}: {}", r.name, r.summary);
        }
        let mut sim = cmt_bench::simulate_observed(&p, sim_n, SHARDS, 10_000, None);
        sim.export_metrics(&mut sink.metrics, "fig2.matmul_opt");
    }
    if let Err(e) = cmt_bench::emit("fig2_matmul", &sink.remarks, &sink.metrics) {
        eprintln!("fig2_matmul: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
