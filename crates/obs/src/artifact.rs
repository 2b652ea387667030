//! The artifact contract: one trait every optional run artifact
//! (`profile.json`, `analytic.json`, `explain.json`, `server.json`)
//! implements, so writing, diffing, reporting and gating are generic
//! loops rather than per-kind code.
//!
//! A kind declares once its file suffix, its exact on-disk bytes
//! ([`Artifact::to_json`]) and parser, a [`Artifact::diff`] that keeps
//! deterministic drift apart from wall-clock drift, a
//! [`Artifact::gate`] whose thresholds are constants of the kind, and
//! its run-report section. [`Kind`] erases the type so one list of
//! `&dyn ArtifactKind` can drive `obs_diff` and `cmt-report`.

use std::marker::PhantomData;

/// What one artifact diff found, split by whether it may fail a gate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Findings {
    /// Drift in deterministic fields: each one is a regression.
    pub deterministic: Vec<String>,
    /// Drift in wall-clock fields: printed, never counted.
    pub informational: Vec<String>,
}

/// One optional artifact kind written as `{name}.{SUFFIX}`.
pub trait Artifact: Sized {
    /// File suffix after `{name}.`, e.g. `"profile.json"`.
    const SUFFIX: &'static str;

    /// Parses a document written by [`Artifact::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    fn parse(text: &str) -> Result<Self, String>;

    /// The exact on-disk bytes (fixed field order, fixed float
    /// formatting, trailing newline included).
    fn to_json(&self) -> String;

    /// Compares `current` against `self` as the baseline. Numeric
    /// drift counts beyond `threshold`. The default treats any byte
    /// difference as a deterministic finding.
    fn diff(&self, current: &Self, _threshold: f64) -> Findings {
        let mut f = Findings::default();
        if self.to_json() != current.to_json() {
            f.deterministic.push("document changed".to_string());
        }
        f
    }

    /// Checks the kind's constant thresholds: one message per
    /// violation, empty when the document passes. Kinds without a
    /// gate keep the default.
    fn gate(&self) -> Vec<String> {
        Vec::new()
    }

    /// Appends this document's `cmt-report` section (deterministic
    /// fields only). Kinds without a section keep the default.
    fn report(&self, _out: &mut String) {}
}

/// An [`Artifact`] kind with its type erased, working on file text.
pub trait ArtifactKind: Sync {
    /// The kind's [`Artifact::SUFFIX`].
    fn suffix(&self) -> &'static str;

    /// Diffs the baseline and current files, either of which may be
    /// absent. Absent on both sides is clean; on one side it is a
    /// deterministic finding. Findings are prefixed with the kind's
    /// label (the suffix without `.json`).
    ///
    /// # Errors
    ///
    /// Fails when a present file does not parse.
    fn diff(
        &self,
        baseline: Option<&str>,
        current: Option<&str>,
        threshold: f64,
    ) -> Result<Findings, String>;

    /// Appends the file's report section.
    ///
    /// # Errors
    ///
    /// Fails when the file does not parse.
    fn report(&self, text: &str, out: &mut String) -> Result<(), String>;
}

/// The [`ArtifactKind`] of artifact type `A`.
pub struct Kind<A>(PhantomData<fn() -> A>);

impl<A> Kind<A> {
    /// The kind value, usable in a `static` list.
    pub const NEW: Kind<A> = Kind(PhantomData);
}

impl<A: Artifact> ArtifactKind for Kind<A> {
    fn suffix(&self) -> &'static str {
        A::SUFFIX
    }

    fn diff(
        &self,
        baseline: Option<&str>,
        current: Option<&str>,
        threshold: f64,
    ) -> Result<Findings, String> {
        let suffix = A::SUFFIX;
        let mut f = Findings::default();
        match (baseline, current) {
            (None, None) => {}
            (Some(_), None) => f
                .deterministic
                .push(format!("{suffix} removed (baseline only)")),
            (None, Some(_)) => f
                .deterministic
                .push(format!("{suffix} added (current only)")),
            (Some(b), Some(c)) => {
                let b = A::parse(b).map_err(|e| format!("baseline {suffix}: {e}"))?;
                let c = A::parse(c).map_err(|e| format!("current {suffix}: {e}"))?;
                let label = suffix.trim_end_matches(".json");
                let found = b.diff(&c, threshold);
                let prefix = |v: Vec<String>| v.into_iter().map(|x| format!("{label}: {x}"));
                f.deterministic.extend(prefix(found.deterministic));
                f.informational.extend(prefix(found.informational));
            }
        }
        Ok(f)
    }

    fn report(&self, text: &str, out: &mut String) -> Result<(), String> {
        let doc = A::parse(text).map_err(|e| format!("{}: {e}", A::SUFFIX))?;
        doc.report(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-number document: deterministic `v`, wall-clock `ms`.
    #[derive(Debug, PartialEq)]
    struct Doc {
        v: u64,
        ms: u64,
    }

    impl Artifact for Doc {
        const SUFFIX: &'static str = "doc.json";
        fn parse(text: &str) -> Result<Self, String> {
            let (v, ms) = text.trim().split_once(',').ok_or("no comma")?;
            let num = |s: &str| s.parse().map_err(|_| format!("bad number {s:?}"));
            Ok(Doc {
                v: num(v)?,
                ms: num(ms)?,
            })
        }
        fn to_json(&self) -> String {
            format!("{},{}\n", self.v, self.ms)
        }
        fn diff(&self, current: &Self, _threshold: f64) -> Findings {
            let mut f = Findings::default();
            if self.v != current.v {
                f.deterministic
                    .push(format!("v {} -> {}", self.v, current.v));
            }
            if self.ms != current.ms {
                f.informational
                    .push(format!("ms {} -> {}", self.ms, current.ms));
            }
            f
        }
        fn gate(&self) -> Vec<String> {
            (self.v > 9)
                .then(|| format!("v {} above 9", self.v))
                .into_iter()
                .collect()
        }
    }

    static KINDS: [&dyn ArtifactKind; 1] = [&Kind::<Doc>::NEW];

    #[test]
    fn erased_diff_splits_findings_and_handles_absence() {
        let kind = KINDS[0];
        assert_eq!(kind.suffix(), "doc.json");
        assert_eq!(kind.diff(None, None, 0.0), Ok(Findings::default()));
        let one_sided = kind.diff(Some("1,2"), None, 0.0).unwrap();
        assert_eq!(
            one_sided.deterministic,
            ["doc.json removed (baseline only)"]
        );
        let added = kind.diff(None, Some("1,2"), 0.0).unwrap();
        assert_eq!(added.deterministic, ["doc.json added (current only)"]);
        let timing = kind.diff(Some("1,2"), Some("1,3"), 0.0).unwrap();
        assert!(timing.deterministic.is_empty());
        assert_eq!(timing.informational, ["doc: ms 2 -> 3"]);
        let drift = kind.diff(Some("1,2"), Some("4,2"), 0.0).unwrap();
        assert_eq!(drift.deterministic, ["doc: v 1 -> 4"]);
        let err = kind.diff(Some("1,2"), Some("x"), 0.0).unwrap_err();
        assert!(err.starts_with("current doc.json:"), "{err}");
    }

    #[test]
    fn default_diff_compares_bytes_and_gate_reads_constants() {
        struct Raw(String);
        impl Artifact for Raw {
            const SUFFIX: &'static str = "raw.json";
            fn parse(text: &str) -> Result<Self, String> {
                Ok(Raw(text.to_string()))
            }
            fn to_json(&self) -> String {
                self.0.clone()
            }
        }
        let a = Raw("a".to_string());
        assert_eq!(a.diff(&Raw("a".to_string()), 0.0), Findings::default());
        assert_eq!(a.diff(&Raw("b".to_string()), 0.0).deterministic.len(), 1);
        assert!(a.gate().is_empty());
        assert!(Doc { v: 9, ms: 0 }.gate().is_empty());
        assert_eq!(Doc { v: 10, ms: 0 }.gate().len(), 1);
    }
}
