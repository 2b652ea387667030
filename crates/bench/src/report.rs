//! Per-run markdown reports: one document joining a run's remarks
//! JSONL, metrics JSON, and the optional artifacts it left (trace and
//! every kind of [`crate::ARTIFACT_KINDS`]).
//!
//! The renderer consumes **only deterministic fields** — remark
//! contents, counters, non-wall-clock histogram statistics, each
//! artifact kind's report section, and the structural
//! [`cmt_obs::TraceSummary`] of the trace (never timestamps or
//! durations) — so the report for a fixed workload and `CMT_JOBS`
//! value is byte-identical across runs and diffs cleanly in review. A
//! test pins this.

use crate::artifact::{ARTIFACT_KINDS, TRACE_SUFFIX};
use cmt_obs::diff::WALL_CLOCK_SUFFIX;
use cmt_obs::json::{parse, Value};
use cmt_obs::validate_chrome_trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the markdown report for one run.
///
/// `remarks_jsonl` and `metrics_json` are the artifact file contents;
/// `optional` pairs the suffix of each optional artifact the run left
/// (`trace.json` or a kind of [`crate::ARTIFACT_KINDS`]) with its
/// contents. Sections follow the kind list, then the trace. Fails on
/// malformed artifacts (a malformed trace or profile is a real bug —
/// the validators run as part of rendering).
pub fn render_report(
    name: &str,
    remarks_jsonl: &str,
    metrics_json: &str,
    optional: &[(&str, &str)],
) -> Result<String, String> {
    let find = |suffix: &str| optional.iter().find(|(s, _)| *s == suffix).map(|(_, t)| *t);
    let mut out = String::new();
    let _ = writeln!(out, "# Run report: {name}\n");

    // --- Remarks: counts per (pass, kind), then the misses in full. ---
    let mut by_pass: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut problems: Vec<(String, String, String)> = Vec::new();
    let mut total = 0usize;
    for (ln, line) in remarks_jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("remarks line {}: {e}", ln + 1))?;
        let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        let (pass, kind) = (field("pass"), field("kind"));
        *by_pass
            .entry(pass.clone())
            .or_default()
            .entry(kind.clone())
            .or_insert(0) += 1;
        total += 1;
        if kind == "Missed" || kind == "Diverged" {
            problems.push((pass, field("nest"), field("reason")));
        }
    }
    let _ = writeln!(out, "## Remarks ({total})\n");
    if by_pass.is_empty() {
        out.push_str("(none)\n");
    } else {
        const KINDS: [&str; 5] = ["Applied", "Missed", "Analysis", "Verified", "Diverged"];
        out.push_str("| pass | Applied | Missed | Analysis | Verified | Diverged |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for (pass, kinds) in &by_pass {
            let _ = write!(out, "| {pass} |");
            for k in KINDS {
                let _ = write!(out, " {} |", kinds.get(k).copied().unwrap_or(0));
            }
            out.push('\n');
        }
    }
    if !problems.is_empty() {
        let _ = writeln!(out, "\n### Missed / diverged\n");
        for (pass, nest, reason) in &problems {
            let _ = writeln!(out, "- `{pass}` on `{nest}`: {reason}");
        }
    }

    // --- Metrics: counters, then histograms with quantiles. ---
    let metrics = parse(metrics_json).map_err(|e| format!("metrics: {e}"))?;
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("metrics: missing counters object")?;
    let _ = writeln!(out, "\n## Counters ({})\n", counters.len());
    if !counters.is_empty() {
        out.push_str("| counter | value |\n|---|---|\n");
        for (k, v) in counters {
            let _ = writeln!(out, "| {k} | {} |", v.as_u64().unwrap_or(0));
        }
    }
    let hists = metrics
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or("metrics: missing histograms object")?;
    let _ = writeln!(out, "\n## Histograms ({})\n", hists.len());
    if !hists.is_empty() {
        out.push_str("| histogram | count | min | max | mean | p50 | p95 | p99 |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for (k, v) in hists {
            let count = v.get("count").and_then(Value::as_u64).unwrap_or(0);
            if k.ends_with(WALL_CLOCK_SUFFIX) {
                // Wall-clock timings are nondeterministic; only the
                // sample count is reproducible.
                let _ = writeln!(out, "| {k} | {count} | — | — | — | — | — | — |");
                continue;
            }
            let stat = |s: &str| {
                v.get(s)
                    .and_then(Value::as_f64)
                    .map(|f| format!("{f:.4}"))
                    .unwrap_or_else(|| "—".to_string())
            };
            let _ = writeln!(
                out,
                "| {k} | {count} | {} | {} | {} | {} | {} | {} |",
                stat("min"),
                stat("max"),
                stat("mean"),
                stat("p50"),
                stat("p95"),
                stat("p99"),
            );
        }
        if hists.iter().any(|(k, _)| k.ends_with(WALL_CLOCK_SUFFIX)) {
            out.push_str("\n`*.ns` histograms are wall-clock timings; values vary run-to-run and are elided.\n");
        }
    }

    // --- One section per optional artifact kind present. ---
    for kind in ARTIFACT_KINDS {
        if let Some(text) = find(kind.suffix()) {
            kind.report(text, &mut out)?;
        }
    }

    // --- Trace: structural summary only (no timestamps). ---
    if let Some(trace) = find(TRACE_SUFFIX) {
        let summary = validate_chrome_trace(trace).map_err(|e| format!("trace: {e}"))?;
        let _ = writeln!(out, "\n## Trace\n");
        let _ = writeln!(
            out,
            "{} tracks, {} events ({} spans, {} counter samples).\n",
            summary.tracks, summary.events, summary.spans, summary.counter_samples
        );
        out.push_str("| event | count |\n|---|---|\n");
        for (name, count) in &summary.by_name {
            let _ = writeln!(out, "| {name} | {count} |");
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ServerBenchReport;
    use cmt_obs::{Artifact, CollectSink, ObsSink, Remark, RemarkKind, TraceSession};

    fn sample_sink() -> CollectSink {
        let mut sink = CollectSink::new();
        sink.remark(Remark::new("permute", "mm/nest0:I.J.K", RemarkKind::Applied).reason("ok"));
        sink.remark(Remark::new("fuse", "mm/nest1:I", RemarkKind::Missed).reason("not legal"));
        sink.counter("sim.accesses", 500);
        sink.record("cost.ratio", 4.0);
        sink.record("pass.compound.ns", 12345.0);
        sink
    }

    #[test]
    fn report_sections_render() {
        let sink = sample_sink();
        let mut session = TraceSession::new();
        session.main().begin("pass.compound", &[]);
        session.main().end("pass.compound", &[]);
        let report = render_report(
            "unit",
            &sink.remarks_jsonl(),
            &sink.metrics.to_json(),
            &[(TRACE_SUFFIX, &session.to_chrome_json())],
        )
        .unwrap();
        assert!(report.contains("# Run report: unit"));
        assert!(report.contains("| permute | 1 | 0 |"), "{report}");
        assert!(report.contains("`fuse` on `mm/nest1:I`: not legal"));
        assert!(report.contains("| sim.accesses | 500 |"));
        assert!(report.contains("| cost.ratio | 1 | 4.0000 |"), "{report}");
        assert!(report.contains("| pass.compound.ns | 1 | — |"), "{report}");
        assert!(
            report.contains("1 tracks, 2 events (1 spans, 0 counter samples)"),
            "{report}"
        );
        assert!(report.contains("| pass.compound | 2 |"));
    }

    #[test]
    fn report_is_deterministic_across_traced_runs() {
        // Two runs of the same workload produce different wall-clock
        // traces; the report must nevertheless be byte-identical
        // because it reads only deterministic fields.
        let render_once = || {
            let sink = sample_sink();
            let mut session = TraceSession::new();
            session.main().begin("pass.compound", &[]);
            std::thread::sleep(std::time::Duration::from_millis(2));
            session.main().end("pass.compound", &[]);
            let mut w = session.track("worker-0");
            let t0 = w.start();
            w.complete_since(t0, "simulate", &[]);
            session.absorb(w);
            render_report(
                "det",
                &sink.remarks_jsonl(),
                &sink.metrics.to_json(),
                &[(TRACE_SUFFIX, &session.to_chrome_json())],
            )
            .unwrap()
        };
        assert_eq!(render_once(), render_once());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(render_report("x", "not json\n", "{}", &[]).is_err());
        assert!(render_report("x", "", "{", &[]).is_err());
        let ok_metrics = "{\"counters\":{},\"histograms\":{}}";
        assert!(render_report("x", "", ok_metrics, &[(TRACE_SUFFIX, "[")]).is_err());
        for kind in ARTIFACT_KINDS {
            assert!(
                render_report("x", "", ok_metrics, &[(kind.suffix(), "{")]).is_err(),
                "{}",
                kind.suffix()
            );
        }
    }

    #[test]
    fn profile_section_renders_ranking() {
        use cmt_ir::build::ProgramBuilder;
        use cmt_ir::expr::Expr;
        use cmt_profile::{profile_program, rank_hotspots, ProfileOptions};

        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [j, i])));
            });
        });
        let program = b.finish();
        let opts = ProfileOptions::default();
        let profile = profile_program(&program, 48, &opts, &mut cmt_obs::NullObs).unwrap();
        let ranked = rank_hotspots(&[profile], "p", "c", 48);
        let report = render_report(
            "prof",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            &[("profile.json", &ranked.to_json())],
        )
        .unwrap();
        assert!(report.contains("## Hotspots (1 nests)"), "{report}");
        assert!(report.contains("`copy/nest0:I.J`"), "{report}");
        assert!(report.contains("| rank | nest |"), "{report}");
    }

    #[test]
    fn analytic_section_renders_per_geometry_accuracy() {
        use crate::analytic::{analytic_corpus, analytic_sweep, AnalyticSweepConfig};

        let cfg = AnalyticSweepConfig {
            seeds: 2,
            kernels: false,
            n: 32,
            ..AnalyticSweepConfig::default()
        };
        let programs = analytic_corpus(&cfg);
        let mut sink = cmt_obs::CollectSink::new();
        let analytic = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let report = render_report(
            "an",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            &[("analytic.json", &analytic.to_json())],
        )
        .unwrap();
        assert!(report.contains("## Analytic vs simulated"), "{report}");
        assert!(report.contains("| geometry | pred misses |"), "{report}");
        // One table row per geometry.
        assert_eq!(report.matches("-way/").count(), 3, "{report}");
    }

    #[test]
    fn service_section_renders_deterministic_fields_only() {
        let server = ServerBenchReport {
            seeds: 4,
            clients: 2,
            passes: 2,
            n: 8,
            fault_injected: true,
            fault_seed: 7,
            requests: 16,
            ok: 15,
            cached: 8,
            simulated: 6,
            analytic: 1,
            degraded: 2,
            errors: 1,
            overloaded: 0,
            malformed: 0,
            transport_failures: 0,
            second_pass_requests: 8,
            second_pass_cached: 8,
            memo_hits: 8,
            memo_misses: 8,
            memo_inserted: 7,
            memo_evictions: 3,
            p50_us: 123.4,
            p99_us: 9_999.9,
            p50_cold_us: 456.7,
            p99_cold_us: 88_888.8,
        };
        let report = render_report(
            "srv",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            &[("server.json", &server.to_json())],
        )
        .unwrap();
        assert!(report.contains("## Service"), "{report}");
        assert!(report.contains("second-pass hit rate 1.000"), "{report}");
        assert!(report.contains("| simulated | 6 |"), "{report}");
        assert!(report.contains("3 evicted"), "{report}");
        assert!(report.contains("(fault seed 7)"), "{report}");
        // Wall-clock latency never reaches the report.
        assert!(!report.contains("9999"), "{report}");
        assert!(!report.contains("88888"), "{report}");
    }

    #[test]
    fn decisions_section_renders_provenance() {
        use crate::explain::{explain_corpus, explain_sweep, ExplainSweepConfig};

        let cfg = ExplainSweepConfig {
            seeds: 2,
            kernels: false,
            n: 24,
            margin_tie: 0.05,
        };
        let programs = explain_corpus(&cfg);
        let mut sink = cmt_obs::CollectSink::new();
        let (doc, _) = explain_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let report = render_report(
            "ex",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            &[("explain.json", &doc.to_json())],
        )
        .unwrap();
        assert!(report.contains("## Decisions ("), "{report}");
        assert!(report.contains("joined across both oracles"), "{report}");
    }
}
