//! Regenerates Figures 8 and 9: memory-order histograms.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (text, _) = cmt_bench::tables::fig8_9();
    println!("{text}");

    // Observability artifacts: the compound driver's remark and
    // decision stream over the whole suite — the histograms above
    // bucket exactly these runs' memory-order percentages — plus a
    // Chrome Trace under CMT_TRACE.
    let programs: Vec<_> = cmt_suite::suite()
        .into_iter()
        .map(|m| m.optimized)
        .collect();
    if let Err(e) = cmt_bench::emit_observed_compound("fig8_9_histograms", &programs) {
        eprintln!("fig8_9_histograms: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
