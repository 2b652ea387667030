//! Regenerates Figure 7: Cholesky variants.

use cmt_locality::pass::Pipeline;
use cmt_obs::{CollectSink, TraceSession, Tracing};
use std::process::ExitCode;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let (text, rows) = cmt_bench::tables::fig7_cholesky(n);
    println!("{text}");
    let best = rows.iter().min_by_key(|r| r.cycles).expect("variants");
    println!("fastest variant: {} (paper: KJI / memory order)", best.name);

    // Observability artifacts: remarks from optimizing KIJ Cholesky
    // (distribution is the interesting decision), plus an attributed
    // simulation of the result. With CMT_TRACE set, the same run also
    // records a Chrome Trace (pass spans on the main track, the
    // simulation on its own track).
    let mut p = cmt_suite::kernels::cholesky_kij();
    let sim_n = n.min(160);
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
        let mut sim = cmt_bench::simulate_observed(&p, sim_n, 1, 10_000, Some(&mut track));
        session.absorb(track);
        sim.export_metrics(&mut sink.metrics, "fig7.cholesky_opt");
        session.validate().expect("trace invariants");
        match cmt_bench::write_trace_json("fig7_cholesky", &session.to_chrome_json()) {
            Ok(path) => println!("[obs] trace:    {}", path.display()),
            Err(e) => {
                eprintln!("fig7_cholesky: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        sink = CollectSink::new();
        let reports = pipeline.run_observed(&mut p, &mut sink);
        for r in &reports {
            println!("[pass] {}: {}", r.name, r.summary);
        }
        let mut sim = cmt_bench::simulate_observed(&p, sim_n, 1, 10_000, None);
        sim.export_metrics(&mut sink.metrics, "fig7.cholesky_opt");
    }
    if let Err(e) = cmt_bench::emit("fig7_cholesky", &sink.remarks, &sink.metrics) {
        eprintln!("fig7_cholesky: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
