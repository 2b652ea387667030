//! One short pass of every workload through the library: outputs are
//! correct, every metric `BENCHMARK.json` names is emitted, and a traced
//! run computes exactly what an untraced one does.

use cmt_benchmark::{run, Config, Outcome, WORKLOADS};
use cmt_obs::json::{self, Value};
use cmt_obs::validate_chrome_trace;

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) -> Outcome {
    let cfg = Config {
        seed: 1,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    let outcome = run(workload, &cfg).expect("workload runs");
    assert!(outcome.attempted > 0, "{workload}: nothing checked");
    assert_eq!(outcome.failed, 0, "{workload}: wrong outputs");
    outcome
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect("metric emitted")
}

#[test]
fn every_workload_checks_clean_and_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let plain = smoke(workload, false);
        assert_eq!(names(&plain), end_to_end, "{workload}");
        assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{workload}");
        assert!(plain.result_json().starts_with("{\"correct\":true,"));

        // Outputs come from the last pass, which in a traced smoke run
        // is the traced one.
        let traced = smoke(workload, true);
        assert_eq!(names(&traced), per_layer, "{workload}");
        assert_eq!(
            traced.outputs, plain.outputs,
            "{workload}: tracing changed what was computed"
        );
        let chrome = traced.trace_json.as_deref().expect("trace written");
        let summary = validate_chrome_trace(chrome).expect("valid Chrome trace");
        assert!(summary.spans > 0, "{workload}");
        let coverage = metric(&traced, "trace.coverage");
        assert!(coverage >= 0.95, "{workload}: trace coverage {coverage}");
    }
}
