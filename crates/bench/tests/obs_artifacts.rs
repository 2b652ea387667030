//! End-to-end pins for the observability artifacts: a traced run of a
//! paper table produces a valid Chrome Trace with one track per worker,
//! `obs_diff` exits 0 on identical artifacts and nonzero on a perturbed
//! counter or any registered artifact kind's drift, and `cmt-report`
//! renders a deterministic report.
//!
//! These tests run the real binaries (via `CARGO_BIN_EXE_*`) so the
//! `CMT_TRACE` / `CMT_JOBS` / `CMT_OBS_DIR` wiring is covered, each in
//! its own artifact directory so they can run concurrently.

use cmt_bench::{AnalyticReport, ExplainDocument, ServerBenchReport, ARTIFACT_KINDS};
use cmt_obs::{validate_chrome_trace, Artifact};
use cmt_profile::{HotspotEntry, HotspotProfile};
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmt-obs-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn traced_table4_run_produces_valid_trace_with_worker_tracks() {
    let dir = scratch("table4");
    let out = Command::new(env!("CARGO_BIN_EXE_table4_hit_rates"))
        .arg("24")
        .env("CMT_TRACE", "1")
        .env("CMT_JOBS", "4")
        .env("CMT_OBS_DIR", &dir)
        .output()
        .expect("spawn table4_hit_rates");
    assert!(
        out.status.success(),
        "table4 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = fs::read_to_string(dir.join("table4_hit_rates.trace.json")).expect("trace file");
    let summary = validate_chrome_trace(&trace).expect("trace validates");
    // Main track plus one per worker: CMT_JOBS=4 must be visible as at
    // least 4 distinct tracks.
    assert!(
        summary.tracks >= 4,
        "expected >= 4 tracks under CMT_JOBS=4, got {}",
        summary.tracks
    );
    // Every suite model got a par_map item span and a simulation span
    // with its batch sub-spans and miss-rate counter samples.
    let items = summary.by_name.get("par_map.item").copied().unwrap_or(0);
    assert!(items > 0, "no par_map.item spans: {:?}", summary.by_name);
    assert_eq!(summary.by_name.get("simulate").copied().unwrap_or(0), items);
    assert!(summary.by_name.contains_key("sim.batch"));
    assert!(summary.by_name.contains_key("cache1.miss_rate"));
    assert!(summary.counter_samples > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn traced_fig2_run_matches_untraced_artifacts() {
    // Tracing must not change what the run computes: the deterministic
    // artifacts (remarks, metrics) are byte-identical with and without
    // CMT_TRACE, except for wall-clock histogram values, which we strip
    // by comparing the obs_diff verdict instead of raw bytes.
    let (plain, traced) = (scratch("fig2-plain"), scratch("fig2-traced"));
    for (dir, trace) in [(&plain, "0"), (&traced, "1")] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig2_matmul"))
            .arg("48")
            .env("CMT_TRACE", trace)
            .env("CMT_OBS_DIR", dir)
            .output()
            .expect("spawn fig2_matmul");
        assert!(
            out.status.success(),
            "fig2 failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        fs::read_to_string(plain.join("fig2_matmul.remarks.jsonl")).unwrap(),
        fs::read_to_string(traced.join("fig2_matmul.remarks.jsonl")).unwrap(),
        "remarks must be identical with tracing on and off"
    );
    assert!(!plain.join("fig2_matmul.trace.json").exists());
    let trace = fs::read_to_string(traced.join("fig2_matmul.trace.json")).expect("trace file");
    let summary = validate_chrome_trace(&trace).expect("trace validates");
    assert!(summary.by_name.contains_key("compound.nest"));
    assert!(summary.by_name.contains_key("simulate"));
    let out = Command::new(env!("CARGO_BIN_EXE_obs_diff"))
        .args([
            plain.to_str().unwrap(),
            traced.to_str().unwrap(),
            "fig2_matmul",
        ])
        .output()
        .expect("spawn obs_diff");
    assert!(
        out.status.success(),
        "deterministic fields diverged under tracing:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = fs::remove_dir_all(&plain);
    let _ = fs::remove_dir_all(&traced);
}

#[test]
fn obs_diff_exit_codes_are_pinned() {
    let dir = scratch("diff");
    let (a, b) = (dir.join("a"), dir.join("b"));
    fs::create_dir_all(&a).unwrap();
    fs::create_dir_all(&b).unwrap();
    let metrics = r#"{"counters":{"sim.accesses":500},"histograms":{}}"#;
    let remarks = "{\"pass\":\"permute\",\"nest\":\"mm/nest0:I.J.K\",\"kind\":\"Applied\",\"reason\":\"ok\"}\n";
    fs::write(a.join("unit.metrics.json"), metrics).unwrap();
    fs::write(a.join("unit.remarks.jsonl"), remarks).unwrap();
    fs::write(b.join("unit.metrics.json"), metrics).unwrap();
    fs::write(b.join("unit.remarks.jsonl"), remarks).unwrap();

    let run = || {
        Command::new(env!("CARGO_BIN_EXE_obs_diff"))
            .args([a.to_str().unwrap(), b.to_str().unwrap(), "unit"])
            .output()
            .expect("spawn obs_diff")
    };
    // Identical artifacts: exit 0.
    let out = run();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);

    // One perturbed counter: exit nonzero and the finding names it.
    fs::write(b.join("unit.metrics.json"), metrics.replace("500", "501")).unwrap();
    let out = run();
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sim.accesses"), "{text}");
    assert!(text.contains("500") && text.contains("501"), "{text}");

    // Server reports differing only in wall-clock latency: the drift is
    // printed as informational and the exit code stays 0.
    fs::write(b.join("unit.metrics.json"), metrics).unwrap();
    let server = committed::<ServerBenchReport>("BENCH_server.json");
    let mut slower = server.clone();
    slower.p99_cold_us += 12.8;
    fs::write(a.join("unit.server.json"), server.to_json()).unwrap();
    fs::write(b.join("unit.server.json"), slower.to_json()).unwrap();
    let out = run();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("p99 cold latency"), "{text}");
    assert!(text.contains("informational"), "{text}");

    // Bad usage: exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_obs_diff"))
        .output()
        .expect("spawn obs_diff");
    assert_eq!(out.status.code(), Some(2));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cmt_report_renders_from_artifacts() {
    let dir = scratch("report");
    let out = Command::new(env!("CARGO_BIN_EXE_fig2_matmul"))
        .arg("48")
        .env("CMT_TRACE", "1")
        .env("CMT_OBS_DIR", &dir)
        .output()
        .expect("spawn fig2_matmul");
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_cmt-report"))
        .args(["fig2_matmul", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn cmt-report");
    assert!(
        out.status.success(),
        "cmt-report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = fs::read_to_string(dir.join("fig2_matmul.report.md")).expect("report file");
    assert!(report.contains("# Run report: fig2_matmul"));
    assert!(report.contains("## Counters"));
    assert!(report.contains("## Trace"));
    assert!(report.contains("| simulate | 1 |"), "{report}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_table_bin_emits_artifacts_and_valid_trace() {
    // The previously untraced table/figure bins now share the
    // `emit_observed_compound` companion: each must write remarks,
    // metrics, and (under CMT_TRACE) a structurally valid Chrome Trace
    // with compound spans.
    let bins: [(&str, &str, &[&str]); 5] = [
        (
            "table1_erlebacher",
            env!("CARGO_BIN_EXE_table1_erlebacher"),
            &["24"],
        ),
        (
            "table3_performance",
            env!("CARGO_BIN_EXE_table3_performance"),
            &["24"],
        ),
        (
            "table5_access_properties",
            env!("CARGO_BIN_EXE_table5_access_properties"),
            &[],
        ),
        (
            "fig8_9_histograms",
            env!("CARGO_BIN_EXE_fig8_9_histograms"),
            &[],
        ),
        ("ablation_table", env!("CARGO_BIN_EXE_ablation_table"), &[]),
    ];
    for (name, exe, args) in bins {
        let dir = scratch(name);
        let out = Command::new(exe)
            .args(args)
            .env("CMT_TRACE", "1")
            .env("CMT_JOBS", "2")
            .env("CMT_OBS_DIR", &dir)
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(dir.join(format!("{name}.remarks.jsonl")).exists(), "{name}");
        assert!(dir.join(format!("{name}.metrics.json")).exists(), "{name}");
        let trace = fs::read_to_string(dir.join(format!("{name}.trace.json"))).expect("trace file");
        let summary = validate_chrome_trace(&trace).expect("trace validates");
        assert!(
            summary.by_name.contains_key("compound.nest") || summary.spans > 0,
            "{name}: no spans in trace: {:?}",
            summary.by_name
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn explain_json_is_deterministic_across_jobs_and_reruns() {
    // The explain document must be byte-identical for any CMT_JOBS and
    // across repeated runs.
    let mut docs = Vec::new();
    for (i, jobs) in ["1", "4", "4"].iter().enumerate() {
        let dir = scratch(&format!("explain-det-{i}"));
        let out = Command::new(env!("CARGO_BIN_EXE_cmt-explain"))
            .args(["--seeds", "2", "--no-kernels", "--n", "16", "--name", "det"])
            .env("CMT_JOBS", jobs)
            .env("CMT_OBS_DIR", &dir)
            .output()
            .expect("spawn cmt-explain");
        assert!(
            out.status.success(),
            "cmt-explain failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        docs.push(fs::read_to_string(dir.join("det.explain.json")).expect("explain doc"));
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(docs[0], docs[1], "explain.json depends on CMT_JOBS");
    assert_eq!(docs[1], docs[2], "explain.json differs across reruns");
}

/// A committed `BENCH_*.json` document at the repo root.
fn committed<A: Artifact>(file: &str) -> A {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    A::parse(&fs::read_to_string(&path).expect(file)).expect(file)
}

/// One sample document per registered artifact kind, and a copy with
/// one deterministic field perturbed: `(suffix, sample, perturbed)`.
fn kind_samples() -> Vec<(&'static str, String, String)> {
    let entry = HotspotEntry {
        rank: 1,
        program: "p".to_string(),
        nest: "p/nest0:I.J".to_string(),
        accesses: 1000,
        sampled_accesses: 100,
        windows: 4,
        windows_sampled: 1,
        est_misses: 100,
        est_miss_rate: 0.1,
        exact: false,
        escalated: false,
        full_misses: None,
        arrays: vec![("A".to_string(), 100, 1.0)],
    };
    let profile = HotspotProfile {
        policy: "every-kth(k=16,window=256,seed=0x1)".to_string(),
        cache: "8192B/2-way/32B-line".to_string(),
        n: 16,
        entries: vec![entry],
    };
    let mut profile2 = profile.clone();
    profile2.entries[0].est_misses += 1;

    let analytic = committed::<AnalyticReport>("BENCH_analytic.json");
    let mut analytic2 = analytic.clone();
    analytic2.geometries[0].simulated_misses += 1;

    let explain = |desired: &str| {
        format!(
            "{{\"bench\":\"explain-full\",\"seeds\":1,\"programs\":1,\"n\":16,\
             \"margin_tie\":0.050000,\"decisions\":[{{\"program\":\"p\",\
             \"nest\":\"p/nest0:I.J\",\"action\":\"permute\",\"outcome\":\"applied\",\
             \"legal\":true,\"loopcost_desired\":\"{desired}\",\"achieved\":\"{desired}\",\
             \"disagree\":false,\"near_tie\":false}}],\"divergence\":[]}}\n"
        )
    };

    let server = committed::<ServerBenchReport>("BENCH_server.json");
    let mut server2 = server.clone();
    server2.cached -= 1;

    vec![
        (
            HotspotProfile::SUFFIX,
            profile.to_json(),
            profile2.to_json(),
        ),
        (
            AnalyticReport::SUFFIX,
            analytic.to_json(),
            analytic2.to_json(),
        ),
        (ExplainDocument::SUFFIX, explain("J.I"), explain("I.J")),
        (
            ServerBenchReport::SUFFIX,
            server.to_json(),
            server2.to_json(),
        ),
    ]
}

#[test]
fn obs_diff_exit_codes_cover_every_artifact_kind() {
    // For every registered kind: absent on both sides is skipped (0),
    // identical documents are clean (0), a perturbed deterministic field
    // is a finding (1), a one-sided document is a finding (1), and a
    // malformed document is a broken artifact (2).
    let samples = kind_samples();
    let covered: Vec<&str> = samples.iter().map(|s| s.0).collect();
    let registered: Vec<&str> = ARTIFACT_KINDS.iter().map(|k| k.suffix()).collect();
    assert_eq!(covered, registered, "every registered kind needs a sample");

    let dir = scratch("diff-kinds");
    let (a, b) = (dir.join("a"), dir.join("b"));
    fs::create_dir_all(&a).unwrap();
    fs::create_dir_all(&b).unwrap();
    let metrics = r#"{"counters":{},"histograms":{}}"#;
    for d in [&a, &b] {
        fs::write(d.join("unit.metrics.json"), metrics).unwrap();
        fs::write(d.join("unit.remarks.jsonl"), "").unwrap();
    }
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_obs_diff"))
            .args([a.to_str().unwrap(), b.to_str().unwrap(), "unit"])
            .output()
            .expect("spawn obs_diff")
    };
    assert_eq!(run().status.code(), Some(0));

    for (suffix, sample, perturbed) in samples {
        let file = format!("unit.{suffix}");
        let label = suffix.trim_end_matches(".json");
        fs::write(a.join(&file), &sample).unwrap();
        fs::write(b.join(&file), &sample).unwrap();
        let out = run();
        assert_eq!(out.status.code(), Some(0), "{suffix}: {out:?}");

        fs::write(b.join(&file), &perturbed).unwrap();
        let out = run();
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{suffix}: {text}");
        assert!(text.contains(&format!("{label}: ")), "{suffix}: {text}");

        fs::remove_file(b.join(&file)).unwrap();
        let out = run();
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{suffix}: {text}");
        assert!(text.contains(&format!("{suffix} removed")), "{text}");

        fs::write(b.join(&file), "{").unwrap();
        assert_eq!(run().status.code(), Some(2), "{suffix}");

        fs::remove_file(a.join(&file)).unwrap();
        fs::remove_file(b.join(&file)).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}
