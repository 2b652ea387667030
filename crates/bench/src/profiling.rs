//! Corpus-wide sampled profiling sweep — the driver behind the
//! `cmt-profile` binary and the CI profiling smoke gate.
//!
//! A sweep profiles every nest of a corpus (generated verify-corpus
//! programs plus the paper kernels) under a [`SamplePolicy`], ranks the
//! results into one [`HotspotProfile`], and escalates the top-K
//! offenders: a confirming full simulation each, then one supervised
//! optimization run per flagged program. With [`SweepConfig::check`]
//! the sweep also re-profiles everything under full simulation and
//! reports how well the sampled ranking agrees with ground truth —
//! the deterministic accuracy/cost gate CI pins.
//!
//! Determinism: programs are profiled via [`par_map`] and their
//! observability output is absorbed in item order, so the profile and
//! every artifact are byte-identical for any `CMT_JOBS`.

use crate::runner::{par_map, par_map_traced};
use cmt_cache::CacheConfig;
use cmt_ir::program::Program;
use cmt_obs::{CollectSink, TraceSession, Tracing};
use cmt_profile::{
    describe_cache, escalate, kendall_tau, profile_program, rank_hotspots, top_k_agreement,
    EscalationConfig, EscalationOutcome, HotspotProfile, ProfileOptions, SamplePolicy,
};
use cmt_verify::{corpus_seeds, generate};

/// What a profiling sweep covers and how.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// How many verify-corpus seeds to profile (in committed order).
    pub seeds: usize,
    /// Whether the paper kernels ride along as ground-truth workloads.
    pub kernels: bool,
    /// Parameter value every program is profiled at.
    pub n: i64,
    /// Sampling policy for the cheap pass.
    pub policy: SamplePolicy,
    /// Cache geometry.
    pub cache: CacheConfig,
    /// How many top-ranked nests to escalate.
    pub top_k: usize,
    /// Whether flagged programs go through the supervised optimizer.
    pub optimize: bool,
    /// Whether to also run full-simulation ground truth and report
    /// ranking agreement (doubles the cost — CI smoke only).
    pub check: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: 32,
            kernels: true,
            n: 64,
            policy: SamplePolicy::default(),
            cache: CacheConfig::i860(),
            top_k: 5,
            optimize: true,
            check: false,
        }
    }
}

/// Sampled-vs-full ranking agreement from a [`SweepConfig::check`] run.
#[derive(Clone, Debug)]
pub struct AgreementReport {
    /// K used for the set-overlap metric (the escalation cutoff).
    pub top_k: usize,
    /// Fraction of the top-K sets shared between sampled and full
    /// rankings (1.0 = identical sets).
    pub top_k_agreement: f64,
    /// Kendall rank correlation over all nests (1.0 = identical order).
    pub kendall_tau: f64,
}

/// Everything one sweep produced.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The ranked hotspot profile (with escalation stamps applied).
    pub hotspots: HotspotProfile,
    /// Per-escalated-nest outcomes, in rank order.
    pub outcomes: Vec<EscalationOutcome>,
    /// Programs profiled.
    pub programs: usize,
    /// Nests profiled.
    pub nests: usize,
    /// Accesses metered across the corpus.
    pub accesses_total: u64,
    /// Accesses actually simulated by the sampled pass.
    pub accesses_sampled: u64,
    /// Ranking agreement vs full simulation (only under `check`).
    pub agreement: Option<AgreementReport>,
}

/// Builds the sweep corpus: the first `cfg.seeds` committed
/// verify-corpus seeds, then (when `cfg.kernels`) the paper kernels.
pub fn sweep_corpus(cfg: &SweepConfig) -> Vec<Program> {
    let mut programs: Vec<Program> = corpus_seeds()
        .into_iter()
        .take(cfg.seeds)
        .map(generate)
        .collect();
    if cfg.kernels {
        programs.extend(cmt_suite::kernels::paper_kernels());
    }
    programs
}

/// Runs one sweep over `programs`. Profiling is parallel (`CMT_JOBS`)
/// with per-item sinks absorbed in item order; ranking, escalation,
/// and optimization run sequentially on the merged result.
///
/// With a `session`, every worker records its `profile.sample` spans
/// onto its own track and escalation gets an `escalate` track — the
/// remarks/metrics absorbed into `obs` stay byte-identical either way.
///
/// Errors (a program whose nest fails to profile) abort the sweep —
/// the corpus is committed, so a failure is a bug, not data.
pub fn profile_sweep(
    programs: &[Program],
    cfg: &SweepConfig,
    obs: &mut CollectSink,
    mut session: Option<&mut TraceSession>,
) -> Result<SweepResult, String> {
    let opts = ProfileOptions {
        policy: cfg.policy,
        cache: cfg.cache,
    };
    let profiled = match session.as_deref_mut() {
        Some(session) => par_map_traced(programs, session, |p, track| {
            let mut traced = Tracing::new(CollectSink::new(), track);
            let profile = profile_program(p, cfg.n, &opts, &mut traced);
            (profile, traced.inner)
        }),
        None => par_map(programs, |p| {
            let mut sink = CollectSink::new();
            let profile = profile_program(p, cfg.n, &opts, &mut sink);
            (profile, sink)
        }),
    };
    let mut profiles = Vec::with_capacity(profiled.len());
    for (profile, sink) in profiled {
        obs.absorb(sink);
        profiles.push(profile.map_err(|e| e.to_string())?);
    }

    let mut hotspots = rank_hotspots(
        &profiles,
        &cfg.policy.describe(),
        &describe_cache(&cfg.cache),
        cfg.n,
    );
    hotspots.emit_remarks(obs);

    let agreement = if cfg.check {
        let full_opts = ProfileOptions {
            policy: SamplePolicy::Full,
            cache: cfg.cache,
        };
        // Ground truth is observability-silent: its counters and spans
        // would double every `profile.*` metric and break artifact
        // comparability with non-check runs.
        let full = par_map(programs, |p| {
            profile_program(p, cfg.n, &full_opts, &mut cmt_obs::NullObs)
        });
        let mut full_profiles = Vec::with_capacity(full.len());
        for profile in full {
            full_profiles.push(profile.map_err(|e| e.to_string())?);
        }
        let truth = rank_hotspots(&full_profiles, "full", &describe_cache(&cfg.cache), cfg.n);
        Some(AgreementReport {
            top_k: cfg.top_k,
            top_k_agreement: top_k_agreement(&hotspots, &truth, cfg.top_k),
            kendall_tau: kendall_tau(&hotspots, &truth),
        })
    } else {
        None
    };

    let esc_cfg = EscalationConfig {
        top_k: cfg.top_k,
        n: cfg.n,
        cache: cfg.cache,
        optimize: cfg.optimize,
    };
    let outcomes = match session {
        Some(session) => {
            let mut track = session.track("escalate");
            let mut traced = Tracing::new(CollectSink::new(), &mut track);
            let outcomes = escalate(programs, &mut hotspots, &esc_cfg, &mut traced);
            let collected = traced.inner;
            session.absorb(track);
            obs.absorb(collected);
            outcomes
        }
        None => escalate(programs, &mut hotspots, &esc_cfg, obs),
    };

    let (mut accesses_total, mut accesses_sampled, mut nests) = (0u64, 0u64, 0usize);
    for p in &profiles {
        nests += p.nests.len();
        accesses_total += p.total_accesses();
        accesses_sampled += p.sampled_accesses();
    }
    Ok(SweepResult {
        hotspots,
        outcomes,
        programs: profiles.len(),
        nests,
        accesses_total,
        accesses_sampled,
        agreement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            seeds: 4,
            kernels: false,
            n: 24,
            top_k: 2,
            optimize: false,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_profiles_ranks_and_escalates() {
        let cfg = small_cfg();
        let programs = sweep_corpus(&cfg);
        assert_eq!(programs.len(), 4);
        let mut sink = CollectSink::new();
        let result = profile_sweep(&programs, &cfg, &mut sink, None).unwrap();
        assert_eq!(result.programs, 4);
        assert!(result.nests >= 4);
        assert_eq!(result.hotspots.entries.len(), result.nests);
        // Exactly the top-K entries escalated (all programs present).
        let escalated = result
            .hotspots
            .entries
            .iter()
            .filter(|e| e.escalated)
            .count();
        assert_eq!(escalated, cfg.top_k.min(result.nests));
        assert_eq!(sink.metrics.counter_value("profile.programs"), 4);
    }

    #[test]
    fn check_mode_reports_agreement() {
        let cfg = SweepConfig {
            check: true,
            ..small_cfg()
        };
        let programs = sweep_corpus(&cfg);
        let mut sink = CollectSink::new();
        let result = profile_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let agreement = result.agreement.expect("check run must report agreement");
        assert!(agreement.top_k_agreement >= 0.0 && agreement.top_k_agreement <= 1.0);
        assert!(agreement.kendall_tau >= -1.0 && agreement.kendall_tau <= 1.0);
    }

    #[test]
    fn sampled_pass_is_cheaper_than_full() {
        // Debug-build sized: the ≤10% fraction at n=64 is gated in
        // release by the CI profiling smoke (`cmt-profile`, through
        // `HotspotProfile::MAX_SAMPLED_FRACTION`).
        let cfg = SweepConfig {
            n: 32,
            ..small_cfg()
        };
        let programs = sweep_corpus(&cfg);
        let mut sink = CollectSink::new();
        let result = profile_sweep(&programs, &cfg, &mut sink, None).unwrap();
        assert!(
            result.accesses_sampled < result.accesses_total / 2,
            "sampled {} of {} accesses — not cheaper",
            result.accesses_sampled,
            result.accesses_total
        );
    }
}
