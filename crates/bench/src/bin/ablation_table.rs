//! Extension: ablation of the compound algorithm's component passes.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (text, _) = cmt_bench::tables::ablation();
    println!("{text}");

    // Observability artifacts: the remark and decision stream of the
    // "full" ablation variant (every pass enabled) over the whole
    // suite, plus a Chrome Trace under CMT_TRACE. The disabled-pass
    // variants differ from it only by remarks that never happen.
    let programs: Vec<_> = cmt_suite::suite()
        .into_iter()
        .map(|m| m.optimized)
        .collect();
    if let Err(e) = cmt_bench::emit_observed_compound("ablation_table", &programs) {
        eprintln!("ablation_table: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
