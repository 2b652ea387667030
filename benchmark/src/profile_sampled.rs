//! `profile_sampled`: the paper kernels through
//! `cmt_profile::profile_program` with the default sampling policy
//! (every 16th 256-access window) on the i860 geometry. Every access is
//! interpreted; about one in sixteen reaches the cache.
//!
//! A traced pass calls `profile_nest` per top-level nest, which is what
//! `profile_program` does, and records one `profile.nest` span each.

use crate::trace::Recorder;
use crate::{finish, stats_text, Batch, Config, Outcome};
use cmt_ir::program::Program;
use cmt_obs::NullObs;
use cmt_profile::{profile_nest, profile_program, ProfileError, ProfileOptions, ProgramProfile};
use cmt_suite::kernels::paper_kernels;

/// Profiling size, as in the profiling sweep.
const N: i64 = 64;

fn items(smoke: bool) -> Vec<Program> {
    let mut kernels = paper_kernels();
    if smoke {
        kernels.retain(|k| k.name().starts_with("adi-"));
    }
    kernels
}

fn profile_traced(
    rec: &mut Recorder,
    program: &Program,
    opts: &ProfileOptions,
) -> Result<ProgramProfile, ProfileError> {
    let mut nests = Vec::with_capacity(program.body().len());
    for idx in 0..program.body().len() {
        let span = rec.open("profile.nest");
        let nest = profile_nest(program, idx, N, opts, &mut NullObs);
        let (accesses, sampled) = nest
            .as_ref()
            .map_or((0, 0), |p| (p.accesses, p.sampled_accesses));
        rec.close(span, None, &[("accesses", accesses), ("sampled", sampled)]);
        nests.push(nest?);
    }
    Ok(ProgramProfile {
        program: program.name().to_string(),
        n: N,
        nests,
    })
}

fn line(name: &str, profile: &Result<ProgramProfile, ProfileError>) -> String {
    let profile = match profile {
        Ok(p) => p,
        Err(e) => return format!("{name} error: {e}"),
    };
    let mut out = name.to_string();
    for nest in &profile.nests {
        out.push_str(&format!(
            " {} {} {} {} {} {}",
            nest.accesses,
            nest.sampled_accesses,
            nest.windows,
            nest.windows_sampled,
            stats_text(&nest.observed),
            stats_text(&nest.est)
        ));
    }
    out
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let setup = || items(cfg.smoke);
    let kernels = setup();
    let opts = ProfileOptions::default();
    let batch = Batch::new(
        "profile_sampled",
        kernels.iter().map(|k| k.name().to_string()).collect(),
    );
    let measured = batch.run(
        cfg,
        setup,
        |i, rec| {
            if rec.enabled() {
                profile_traced(rec, &kernels[i], &opts)
            } else {
                profile_program(&kernels[i], N, &opts, &mut NullObs)
            }
        },
        line,
    );
    finish("profile_sampled", cfg, measured, &kernels, N)
}
