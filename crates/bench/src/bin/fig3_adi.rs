//! Regenerates Figure 3: ADI fusion + interchange.

use cmt_locality::pass::Pipeline;
use cmt_obs::{CollectSink, TraceSession, Tracing};
use std::process::ExitCode;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(320);
    let (text, rows) = cmt_bench::tables::fig3_adi(n);
    println!("{text}");
    println!(
        "fused/scalarized cycle ratio: {:.2} (fused should win)",
        rows[0].cycles as f64 / rows[1].cycles as f64
    );

    // Observability artifacts: remarks from optimizing the scalarized
    // form (fuse-all then interchange), plus an attributed simulation.
    // With CMT_TRACE set, the same run also records a Chrome Trace
    // (pass spans on the main track, the simulation on its own track).
    let mut p = cmt_suite::kernels::adi_scalarized();
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
        let mut sim = cmt_bench::simulate_observed(&p, sim_n, 1, 10_000, Some(&mut track));
        session.absorb(track);
        sim.export_metrics(&mut sink.metrics, "fig3.adi_opt");
        session.validate().expect("trace invariants");
        match cmt_bench::write_trace_json("fig3_adi", &session.to_chrome_json()) {
            Ok(path) => println!("[obs] trace:    {}", path.display()),
            Err(e) => {
                eprintln!("fig3_adi: {e}");
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
        sim.export_metrics(&mut sink.metrics, "fig3.adi_opt");
    }
    if let Err(e) = cmt_bench::emit("fig3_adi", &sink.remarks, &sink.metrics) {
        eprintln!("fig3_adi: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
