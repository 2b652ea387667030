//! End-to-end properties of the selective-profiling subsystem that the
//! per-crate unit tests can't see: the corpus sweep's determinism
//! across `CMT_JOBS` and repeated runs, sampled-vs-full ranking
//! agreement on a real (small) corpus, bounded per-array attribution
//! error, and the escalation contract — only flagged nests reach the
//! supervised optimizer.
//!
//! Sizes are debug-build friendly; the release-scale versions of these
//! gates (32 seeds at n=64, ≤10% sampled cost, top-5 agreement 1.0 —
//! the `HotspotProfile` gate constants) run in CI via `cmt-profile
//! --check` (see scripts/ci.sh).

use cmt_bench::{profile_sweep, sweep_corpus, SweepConfig};
use cmt_obs::{Artifact, CollectSink};
use cmt_profile::{profile_program, ProfileOptions, SamplePolicy};
use std::sync::Mutex;

/// Serializes tests that read or write `CMT_JOBS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn small_cfg() -> SweepConfig {
    SweepConfig {
        seeds: 6,
        kernels: false,
        n: 32,
        top_k: 3,
        optimize: false,
        check: false,
        ..Default::default()
    }
}

/// One sweep → (profile.json bytes, remarks JSONL, metrics JSON).
fn run_once(cfg: &SweepConfig) -> (String, String, String) {
    let programs = sweep_corpus(cfg);
    let mut sink = CollectSink::new();
    let result = profile_sweep(&programs, cfg, &mut sink, None).expect("sweep");
    (
        result.hotspots.to_json(),
        sink.remarks_jsonl(),
        sink.metrics.to_json(),
    )
}

#[test]
fn profile_artifacts_are_byte_identical_across_cmt_jobs() {
    let _env = ENV_LOCK.lock().unwrap();
    let cfg = small_cfg();
    std::env::set_var("CMT_JOBS", "1");
    let sequential = run_once(&cfg);
    std::env::set_var("CMT_JOBS", "4");
    let parallel = run_once(&cfg);
    std::env::remove_var("CMT_JOBS");
    assert_eq!(sequential.0, parallel.0, "profile.json depends on CMT_JOBS");
    assert_eq!(sequential.1, parallel.1, "remarks depend on CMT_JOBS");
    assert_eq!(sequential.2, parallel.2, "metrics depend on CMT_JOBS");
}

#[test]
fn repeated_sweeps_are_byte_identical() {
    let _env = ENV_LOCK.lock().unwrap();
    let cfg = small_cfg();
    assert_eq!(run_once(&cfg), run_once(&cfg), "sweep is nondeterministic");
}

#[test]
fn sampled_ranking_agrees_with_full_simulation() {
    let _env = ENV_LOCK.lock().unwrap();
    let cfg = SweepConfig {
        check: true,
        ..small_cfg()
    };
    let programs = sweep_corpus(&cfg);
    let mut sink = CollectSink::new();
    let result = profile_sweep(&programs, &cfg, &mut sink, None).expect("sweep");
    let agreement = result.agreement.expect("check run reports agreement");
    // Everything is deterministic, so these can't flake — but at this
    // debug-friendly size (n=32, nests of only a few sampling windows)
    // close-ranked nests may legitimately swap, so the bounds are
    // looser than the release-scale CI gate (top-5 agreement == 1.0 at
    // n=64 via `cmt-profile --check`).
    assert!(
        agreement.top_k_agreement >= 2.0 / 3.0,
        "sampled top-{} agreement {} too low",
        agreement.top_k,
        agreement.top_k_agreement
    );
    assert!(
        agreement.kendall_tau > 0.7,
        "kendall tau {} too low",
        agreement.kendall_tau
    );
}

#[test]
fn per_array_attribution_error_is_bounded() {
    // For EVERY nest of the paper's ADI and Cholesky kernels — short
    // ones included — the sampled per-array miss estimate must stay
    // within 35% (relative, on arrays owning ≥5% of the nest's misses)
    // of full simulation. Short nests used to be skipped here because
    // naive scaling multiplied their window-0 cold transient into a
    // systematic over-estimate; the profiler's cold-start bias
    // correction (compulsory misses held constant under
    // SHORT_NEST_WINDOWS windows) brings them inside the bound.
    let programs = [
        cmt_suite::kernels::adi_scalarized(),
        cmt_suite::kernels::cholesky_kij(),
    ];
    let n = 96;
    let mut asserted = 0usize;
    let sampled_opts = ProfileOptions::default();
    let full_opts = ProfileOptions {
        policy: SamplePolicy::Full,
        ..ProfileOptions::default()
    };
    for program in &programs {
        let sampled =
            profile_program(program, n, &sampled_opts, &mut cmt_obs::NullObs).expect("sampled");
        let full = profile_program(program, n, &full_opts, &mut cmt_obs::NullObs).expect("full");
        for (s_nest, f_nest) in sampled.nests.iter().zip(&full.nests) {
            assert_eq!(s_nest.label, f_nest.label);
            for f_arr in &f_nest.arrays {
                if f_arr.share < 0.05 {
                    continue;
                }
                let s_est = s_nest
                    .arrays
                    .iter()
                    .find(|a| a.name == f_arr.name)
                    .map_or(0, |a| a.est_misses);
                let rel = s_est.abs_diff(f_arr.est_misses) as f64 / f_arr.est_misses.max(1) as f64;
                assert!(
                    rel < 0.35,
                    "{}/{}: sampled {} vs full {} ({:.0}% off)",
                    s_nest.label,
                    f_arr.name,
                    s_est,
                    f_arr.est_misses,
                    rel * 100.0
                );
                asserted += 1;
            }
        }
    }
    assert!(
        asserted >= 4,
        "only {asserted} attributions checked — corpus too small"
    );
}

#[test]
fn escalation_reaches_only_flagged_programs_end_to_end() {
    let _env = ENV_LOCK.lock().unwrap();
    cmt_resilience::silence_supervised_panics();
    let cfg = SweepConfig {
        optimize: true,
        ..small_cfg()
    };
    let programs = sweep_corpus(&cfg);
    let mut sink = CollectSink::new();
    let result = profile_sweep(&programs, &cfg, &mut sink, None).expect("sweep");

    // Exactly the top-K nests were escalated; every escalated nest has
    // a confirming full simulation and an explanatory remark.
    let flagged: Vec<_> = result
        .hotspots
        .entries
        .iter()
        .filter(|e| e.escalated)
        .collect();
    assert_eq!(flagged.len(), cfg.top_k);
    assert!(flagged.iter().all(|e| e.rank <= cfg.top_k));
    assert!(flagged.iter().all(|e| e.full_misses.is_some()));

    // The supervised pipeline ran once per distinct flagged program —
    // no unflagged program reached the optimizer.
    let mut flagged_programs: Vec<&str> = flagged.iter().map(|e| e.program.as_str()).collect();
    flagged_programs.sort_unstable();
    flagged_programs.dedup();
    assert_eq!(
        sink.metrics.counter_value("resilience.supervised"),
        flagged_programs.len() as u64
    );
    assert_eq!(
        sink.metrics.counter_value("profile.optimized"),
        flagged_programs.len() as u64
    );
    assert_eq!(
        sink.metrics.counter_value("profile.escalated"),
        cfg.top_k as u64
    );
    // Every non-flagged nest got a "skipped" decision remark.
    assert_eq!(
        sink.metrics.counter_value("profile.skipped"),
        (result.nests - cfg.top_k) as u64
    );
    let decisions = sink
        .remarks
        .iter()
        .filter(|r| r.pass == "profile.escalate")
        .count();
    assert!(
        decisions >= result.nests,
        "every nest needs a decision remark"
    );
}
