//! Regenerates Table 2: per-program memory-order statistics.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (text, _) = cmt_bench::tables::table2();
    println!("{text}");

    // Observability artifacts: the full remark stream for every suite
    // model — one `compound` run each, same decisions the table counts —
    // plus a Chrome Trace under CMT_TRACE.
    let programs: Vec<_> = cmt_suite::suite()
        .into_iter()
        .map(|m| m.optimized)
        .collect();
    if let Err(e) = cmt_bench::emit_observed_compound("table2_memory_order", &programs) {
        eprintln!("table2_memory_order: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
