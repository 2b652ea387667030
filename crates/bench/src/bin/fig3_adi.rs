//! Regenerates Figure 3: ADI fusion + interchange.

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
    let program = cmt_suite::kernels::adi_scalarized();
    if let Err(e) =
        cmt_bench::emit_observed_pipeline("fig3_adi", program, n.min(128), "fig3.adi_opt")
    {
        eprintln!("fig3_adi: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
