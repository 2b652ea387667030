//! Regenerates Table 1: Erlebacher hand/distributed/fused.

use std::process::ExitCode;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let stages = 6;
    let (text, rows) = cmt_bench::tables::table1_erlebacher(n, stages);
    println!("{text}");
    println!(
        "fusion speedup over distributed: {:.2}x (paper: up to 1.17x)",
        rows[1].cycles as f64 / rows[2].cycles as f64
    );

    // Observability artifacts: the remark and decision stream from the
    // fusion run the table measures (compound on the distributed
    // version), plus a Chrome Trace under CMT_TRACE.
    let programs = [cmt_suite::kernels::erlebacher_distributed(stages)];
    if let Err(e) = cmt_bench::emit_observed_compound("table1_erlebacher", &programs) {
        eprintln!("table1_erlebacher: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
