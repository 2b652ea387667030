//! Regenerates Table 5: data-access properties.

use std::process::ExitCode;

fn main() -> ExitCode {
    let (text, _) = cmt_bench::tables::table5();
    println!("{text}");

    // Observability artifacts: the compound driver's remark and
    // decision stream over the whole suite — the same "final" runs
    // whose locality statistics the table aggregates — plus a Chrome
    // Trace under CMT_TRACE.
    let programs: Vec<_> = cmt_suite::suite()
        .into_iter()
        .map(|m| m.optimized)
        .collect();
    if let Err(e) = cmt_bench::emit_observed_compound("table5_access_properties", &programs) {
        eprintln!("table5_access_properties: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
