//! Regenerates Table 4: simulated cache hit rates for the whole suite.

use cmt_locality::model::CostModel;
use cmt_locality::{compound_with, NullProvenance};
use cmt_obs::{CollectSink, TraceSession, Tracing};
use std::process::ExitCode;

fn main() -> ExitCode {
    let n = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let (text, _) = cmt_bench::tables::table4(n);
    println!("{text}");

    // Observability artifacts: per-array miss attribution of every
    // transformed suite model at a small, fixed size (the table above
    // keeps the paper sizes; the artifact is a diagnostic sample).
    // Workers simulate models in parallel into private sinks; absorbing
    // them in suite order keeps remarks and metrics byte-identical for
    // any CMT_JOBS. With CMT_TRACE set, each worker records onto its own
    // trace track, so Perfetto shows how CMT_JOBS spreads the corpus.
    let model = CostModel::new(4);
    let models: Vec<_> = cmt_suite::suite()
        .into_iter()
        .filter(|m| m.spec.mix.total_nests() > 0)
        .collect();
    let mut trace_session = cmt_bench::trace_enabled().then(TraceSession::new);
    let parts = match trace_session.as_mut() {
        Some(session) => cmt_bench::par_map_traced(&models, session, |m, track| {
            let mut traced = Tracing::new(CollectSink::new(), &mut *track);
            let mut p = m.optimized.clone();
            let _ = compound_with(
                &mut p,
                &model,
                &Default::default(),
                &mut traced,
                &mut NullProvenance,
                &model,
            );
            let mut local = traced.inner;
            let sim = cmt_bench::simulate_observed(&p, 64, 10_000, Some(track));
            sim.export_metrics(&mut local.metrics, &format!("table4.{}", m.spec.name));
            local
        }),
        None => cmt_bench::par_map(&models, |m| {
            let mut local = CollectSink::new();
            let mut p = m.optimized.clone();
            let _ = compound_with(
                &mut p,
                &model,
                &Default::default(),
                &mut local,
                &mut NullProvenance,
                &model,
            );
            let sim = cmt_bench::simulate_observed(&p, 64, 10_000, None);
            sim.export_metrics(&mut local.metrics, &format!("table4.{}", m.spec.name));
            local
        }),
    };
    let mut sink = CollectSink::new();
    for part in parts {
        sink.absorb(part);
    }
    if let Err(e) = cmt_bench::emit(
        "table4_hit_rates",
        &sink.remarks,
        &sink.metrics,
        trace_session.as_ref(),
    ) {
        eprintln!("table4_hit_rates: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
