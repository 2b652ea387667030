//! The committed baselines pass their artifact gates.
//!
//! `BENCH_analytic.json`, `BENCH_explain.json` and `BENCH_server.json`
//! parse through the artifact contract, serialize back to the same
//! bytes, and satisfy their kind's constant thresholds. For every kind,
//! a copy with one threshold violated must fail its gate, so a gate that
//! stops checking cannot pass silently.

use cmt_locality_repro::bench::{AnalyticReport, ExplainReport, ServerBenchReport};
use cmt_locality_repro::obs::Artifact;
use std::path::Path;

/// Checks one committed file: it round-trips byte for byte and passes
/// its gate, and each `violation` applied to a copy makes that copy
/// (serialized and parsed back) fail with exactly one message.
fn check<A: Artifact + Clone>(file: &str, violations: &[fn(&mut A)]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let doc = A::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(doc.to_json(), text, "{file} must round-trip byte for byte");
    assert_eq!(doc.gate(), Vec::<String>::new(), "{file} fails its gate");
    for (i, violate) in violations.iter().enumerate() {
        let mut bad = doc.clone();
        violate(&mut bad);
        let bad = A::parse(&bad.to_json()).expect("mutated copy parses");
        let found = bad.gate();
        assert_eq!(found.len(), 1, "{file} violation {i}: {found:?}");
    }
}

#[test]
fn committed_baselines_pass_their_gates() {
    check::<AnalyticReport>(
        "BENCH_analytic.json",
        &[
            |r| r.geometries[1].top_k_agreement = AnalyticReport::MIN_TOP_K_AGREEMENT - 0.01,
            |r| r.geometries[2].mean_rel_error = AnalyticReport::MAX_MEAN_REL_ERROR + 0.01,
        ],
    );
    check::<ExplainReport>(
        "BENCH_explain.json",
        &[
            |r| r.disagreement_rate = ExplainReport::MAX_DISAGREEMENT_RATE + 0.01,
            |r| r.loopcost_regret = ExplainReport::MAX_LOOPCOST_REGRET + 0.01,
        ],
    );
    check::<ServerBenchReport>(
        "BENCH_server.json",
        &[
            |r| r.malformed = 1,
            |r| r.transport_failures = 1,
            |r| r.second_pass_cached = r.second_pass_requests / 2 - 1,
        ],
    );
}
