//! Regenerates Figure 7: Cholesky variants.

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
    let program = cmt_suite::kernels::cholesky_kij();
    if let Err(e) =
        cmt_bench::emit_observed_pipeline("fig7_cholesky", program, n.min(160), "fig7.cholesky_opt")
    {
        eprintln!("fig7_cholesky: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
