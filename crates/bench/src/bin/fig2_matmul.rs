//! Regenerates Figure 2: matrix-multiply loop-order ranking.

use std::process::ExitCode;

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
    // per-pass timings, and an attributed simulation of the result.
    // With CMT_TRACE set, the same run also records a Chrome Trace (pass
    // and nest spans on the main track, the simulation with its
    // miss-rate counter series on its own track).
    let program = cmt_suite::kernels::matmul("IJK");
    if let Err(e) =
        cmt_bench::emit_observed_pipeline("fig2_matmul", program, n.min(128), "fig2.matmul_opt")
    {
        eprintln!("fig2_matmul: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
