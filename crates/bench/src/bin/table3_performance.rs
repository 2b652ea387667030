//! Regenerates Table 3: whole-program cycle-model performance.

use std::process::ExitCode;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(576);
    let (text, _) = cmt_bench::tables::table3(n);
    println!("{text}");

    // Observability artifacts: the compound driver's remark and
    // decision stream for the same programs the table simulates (the
    // nine suite models plus the gmtry kernel), and a Chrome Trace
    // under CMT_TRACE. Optimization only — the table above already did
    // the expensive simulations.
    let names = [
        "arc2d", "dyfesm", "flo52", "dnasa7", "applu", "appsp", "simple", "linpackd", "wave",
    ];
    let mut programs: Vec<_> = cmt_suite::suite()
        .into_iter()
        .filter(|m| names.contains(&m.spec.name))
        .map(|m| m.optimized)
        .collect();
    programs.push(cmt_suite::kernels::gmtry_rowwise());
    if let Err(e) = cmt_bench::emit_observed_compound("table3_performance", &programs) {
        eprintln!("table3_performance: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
