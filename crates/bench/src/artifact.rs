//! Machine-readable artifacts: JSONL remark streams and JSON metric
//! snapshots written next to the human-readable tables, an optional
//! Chrome Trace, and the optional [`Artifact`] kinds of
//! [`ARTIFACT_KINDS`].
//!
//! Every table/figure binary calls [`emit`] after printing; the files
//! land in `$CMT_OBS_DIR` (default `results/`) so CI and the
//! reproduction script can diff runs without scraping stdout.

use crate::analytic::AnalyticReport;
use crate::explain::ExplainDocument;
use crate::serving::ServerBenchReport;
use cmt_obs::{Artifact, ArtifactKind, Kind, MetricsRegistry, Remark, TraceSession};
use cmt_profile::HotspotProfile;
use std::fs;
use std::io;
use std::path::PathBuf;

/// A typed artifact-I/O failure: which path failed, and how. Artifact
/// writes hit user-controlled locations (`$CMT_OBS_DIR` may be missing,
/// read-only, or a file), so every writer reports this instead of
/// panicking; binaries print it and exit nonzero.
#[derive(Debug)]
pub enum ArtifactError {
    /// The artifact directory could not be created.
    CreateDir {
        /// Directory we tried to create.
        dir: PathBuf,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// An artifact file could not be written.
    Write {
        /// File we tried to write.
        path: PathBuf,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// A recorded trace violates its structural invariants.
    TraceInvariants(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::CreateDir { dir, source } => write!(
                f,
                "could not create artifact directory {}: {source}",
                dir.display()
            ),
            ArtifactError::Write { path, source } => {
                write!(f, "could not write artifact {}: {source}", path.display())
            }
            ArtifactError::TraceInvariants(e) => write!(f, "trace invariants: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::CreateDir { source, .. } | ArtifactError::Write { source, .. } => {
                Some(source)
            }
            ArtifactError::TraceInvariants(_) => None,
        }
    }
}

/// The artifact directory: `$CMT_OBS_DIR`, or `results/` under the
/// current working directory.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("CMT_OBS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn write_artifact(suffix: &str, name: &str, content: &str) -> Result<PathBuf, ArtifactError> {
    let dir = artifact_dir();
    fs::create_dir_all(&dir).map_err(|source| ArtifactError::CreateDir {
        dir: dir.clone(),
        source,
    })?;
    let path = dir.join(format!("{name}.{suffix}"));
    fs::write(&path, content).map_err(|source| ArtifactError::Write {
        path: path.clone(),
        source,
    })?;
    Ok(path)
}

/// Writes one remark per line as JSON into
/// `{artifact_dir}/{name}.remarks.jsonl`, creating the directory as
/// needed. Returns the path written.
pub fn write_remarks_jsonl(name: &str, remarks: &[Remark]) -> Result<PathBuf, ArtifactError> {
    let mut out = String::new();
    for r in remarks {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    write_artifact("remarks.jsonl", name, &out)
}

/// Whether `CMT_TRACE` asks for a Chrome Trace to be recorded this run.
/// Any non-empty value other than `0` enables tracing.
pub fn trace_enabled() -> bool {
    std::env::var_os("CMT_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Suffix of the optional Chrome Trace artifact.
pub const TRACE_SUFFIX: &str = "trace.json";

/// Every optional artifact kind, in `cmt-report` section order.
/// `obs_diff` and `cmt-report` loop over this list, so a new kind is
/// one [`Artifact`] impl plus one entry here.
pub static ARTIFACT_KINDS: [&dyn ArtifactKind; 4] = [
    &Kind::<HotspotProfile>::NEW,
    &Kind::<AnalyticReport>::NEW,
    &Kind::<ExplainDocument>::NEW,
    &Kind::<ServerBenchReport>::NEW,
];

/// Writes `artifact` into `{artifact_dir}/{name}.{A::SUFFIX}`, creating
/// the directory as needed. Returns the path written.
pub fn write<A: Artifact>(name: &str, artifact: &A) -> Result<PathBuf, ArtifactError> {
    write_artifact(A::SUFFIX, name, &artifact.to_json())
}

/// Writes the registry snapshot into `{artifact_dir}/{name}.metrics.json`,
/// creating the directory as needed. Returns the path written.
pub fn write_metrics_json(name: &str, metrics: &MetricsRegistry) -> Result<PathBuf, ArtifactError> {
    write_artifact("metrics.json", name, &(metrics.to_json() + "\n"))
}

/// Writes a run's remarks and metrics, plus its Chrome Trace (open in
/// Perfetto or `chrome://tracing`) when one was recorded, and reports
/// the paths on stdout in the same style the tables use. The trace is
/// validated first. A failure (broken trace, missing or read-only
/// `$CMT_OBS_DIR`, full disk) is returned so the binary can print it
/// and exit nonzero — CI must not treat a run with silently missing
/// artifacts as green.
pub fn emit(
    name: &str,
    remarks: &[Remark],
    metrics: &MetricsRegistry,
    trace: Option<&TraceSession>,
) -> Result<(), ArtifactError> {
    if let Some(session) = trace {
        session.validate().map_err(ArtifactError::TraceInvariants)?;
        let p = write_artifact(TRACE_SUFFIX, name, &session.to_chrome_json())?;
        println!("[obs] trace:    {}", p.display());
    }
    let p = write_remarks_jsonl(name, remarks)?;
    println!("[obs] remarks:  {}", p.display());
    let p = write_metrics_json(name, metrics)?;
    println!("[obs] metrics:  {}", p.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_obs::{Remark, RemarkKind};

    #[test]
    fn artifacts_round_trip_to_disk() {
        let dir = std::env::temp_dir().join(format!("cmt-obs-test-{}", std::process::id()));
        // Scope the env override to this test binary; tests in this crate
        // run in one process but no other test reads CMT_OBS_DIR.
        std::env::set_var("CMT_OBS_DIR", &dir);
        let remarks =
            vec![Remark::new("permute", "p/nest0:I.J", RemarkKind::Applied).reason("test")];
        let mut reg = MetricsRegistry::new();
        reg.counter("x", 3);
        let rp = write_remarks_jsonl("unit", &remarks).unwrap();
        let mp = write_metrics_json("unit", &reg).unwrap();
        let rtext = std::fs::read_to_string(&rp).unwrap();
        assert_eq!(rtext.lines().count(), 1);
        assert!(rtext.contains("\"pass\":\"permute\""));
        let mtext = std::fs::read_to_string(&mp).unwrap();
        assert!(mtext.contains("\"x\":3"));
        // Error path: point CMT_OBS_DIR below a regular file so the
        // directory cannot be created — the writer must report a typed
        // error naming the path, not panic.
        let blocker = dir.join("unit.remarks.jsonl");
        std::env::set_var("CMT_OBS_DIR", blocker.join("nested"));
        let err = write_remarks_jsonl("unit", &remarks).unwrap_err();
        assert!(matches!(err, ArtifactError::CreateDir { .. }), "{err:?}");
        assert!(err.to_string().contains("could not create"), "{err}");
        std::env::remove_var("CMT_OBS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
