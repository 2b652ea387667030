//! Cross-run regression diffing of observability artifacts.
//!
//! [`diff_metrics`] compares two metrics JSON snapshots
//! (counters + histogram summaries) and [`diff_remarks`] compares two
//! remark JSONL streams. Both return a deterministic, sorted list of
//! [`DiffFinding`]s; an empty list means the runs match. The `obs_diff`
//! binary in `crates/bench` is a thin CLI over this module and exits
//! nonzero when any finding survives, which is how CI pins a committed
//! `results/baseline/` against every fresh run.
//!
//! # Determinism contract
//!
//! Wall-clock timing histograms — every name ending in `.ns` — differ
//! run-to-run by design and are **skipped** here, exactly like trace
//! timestamps are excluded from the byte-identical guarantee. Everything
//! else in the artifacts is deterministic and diffs exactly.

use crate::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Histogram-name suffix marking wall-clock timings, which are excluded
/// from cross-run comparison.
pub const WALL_CLOCK_SUFFIX: &str = ".ns";

/// One difference between a baseline artifact and a current one.
#[derive(Clone, Debug, PartialEq)]
pub enum DiffFinding {
    /// A counter present only in the current run.
    CounterAdded {
        /// Counter name.
        name: String,
        /// Current value.
        value: u64,
    },
    /// A counter present only in the baseline.
    CounterRemoved {
        /// Counter name.
        name: String,
        /// Baseline value.
        value: u64,
    },
    /// A counter whose relative change exceeds the threshold.
    CounterChanged {
        /// Counter name.
        name: String,
        /// Baseline value.
        before: u64,
        /// Current value.
        after: u64,
    },
    /// A (non-wall-clock) histogram present only in the current run.
    HistogramAdded {
        /// Histogram name.
        name: String,
    },
    /// A (non-wall-clock) histogram present only in the baseline.
    HistogramRemoved {
        /// Histogram name.
        name: String,
    },
    /// A histogram statistic whose relative change exceeds the
    /// threshold.
    HistogramDrift {
        /// Histogram name.
        name: String,
        /// Which statistic drifted (`count`, `sum`, `min`, `max`,
        /// `mean`, `p50`, `p95`, `p99`).
        stat: &'static str,
        /// Baseline value.
        before: f64,
        /// Current value.
        after: f64,
    },
    /// A remark line present only in the current run (count = how many
    /// more copies than the baseline has).
    RemarkAdded {
        /// The full remark JSON line.
        line: String,
        /// How many extra occurrences.
        count: u64,
    },
    /// A remark line present only in the baseline.
    RemarkVanished {
        /// The full remark JSON line.
        line: String,
        /// How many missing occurrences.
        count: u64,
    },
}

impl fmt::Display for DiffFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffFinding::CounterAdded { name, value } => {
                write!(f, "counter added: {name} = {value}")
            }
            DiffFinding::CounterRemoved { name, value } => {
                write!(f, "counter removed: {name} (was {value})")
            }
            DiffFinding::CounterChanged {
                name,
                before,
                after,
            } => write!(f, "counter changed: {name}: {before} -> {after}"),
            DiffFinding::HistogramAdded { name } => write!(f, "histogram added: {name}"),
            DiffFinding::HistogramRemoved { name } => write!(f, "histogram removed: {name}"),
            DiffFinding::HistogramDrift {
                name,
                stat,
                before,
                after,
            } => write!(f, "histogram drift: {name}.{stat}: {before} -> {after}"),
            DiffFinding::RemarkAdded { line, count } => {
                write!(f, "remark added (x{count}): {line}")
            }
            DiffFinding::RemarkVanished { line, count } => {
                write!(f, "remark vanished (x{count}): {line}")
            }
        }
    }
}

/// Relative change of `after` versus `before`; infinite when a zero
/// baseline becomes nonzero.
pub fn rel_change(before: f64, after: f64) -> f64 {
    if before == after {
        0.0
    } else if before == 0.0 {
        f64::INFINITY
    } else {
        (after - before).abs() / before.abs()
    }
}

fn u64_field(v: &Value) -> Option<u64> {
    v.as_u64().or_else(|| v.as_f64().map(|f| f as u64))
}

/// Compares two metrics JSON snapshots (as produced by
/// [`crate::MetricsRegistry::to_json`]). Counters and histogram
/// statistics whose relative change exceeds `threshold` are reported
/// (`threshold == 0.0` means any change); names present on only one
/// side are always reported. Histograms named `*.ns` are wall-clock
/// timings and skipped — see the module docs.
pub fn diff_metrics(
    baseline: &str,
    current: &str,
    threshold: f64,
) -> Result<Vec<DiffFinding>, String> {
    let base = parse(baseline).map_err(|e| format!("baseline metrics: {e}"))?;
    let cur = parse(current).map_err(|e| format!("current metrics: {e}"))?;
    let mut findings = Vec::new();

    let counters = |v: &Value| -> Result<BTreeMap<String, u64>, String> {
        let obj = v
            .get("counters")
            .and_then(Value::as_object)
            .ok_or("missing counters object")?;
        Ok(obj
            .iter()
            .filter_map(|(k, v)| u64_field(v).map(|n| (k.clone(), n)))
            .collect())
    };
    let bc = counters(&base)?;
    let cc = counters(&cur)?;
    for (name, &value) in &bc {
        match cc.get(name) {
            None => findings.push(DiffFinding::CounterRemoved {
                name: name.clone(),
                value,
            }),
            Some(&after) if rel_change(value as f64, after as f64) > threshold => {
                findings.push(DiffFinding::CounterChanged {
                    name: name.clone(),
                    before: value,
                    after,
                });
            }
            Some(_) => {}
        }
    }
    for (name, &value) in &cc {
        if !bc.contains_key(name) {
            findings.push(DiffFinding::CounterAdded {
                name: name.clone(),
                value,
            });
        }
    }

    type HistMap = BTreeMap<String, Vec<(String, f64)>>;
    let histograms = |v: &Value| -> Result<HistMap, String> {
        let obj = v
            .get("histograms")
            .and_then(Value::as_object)
            .ok_or("missing histograms object")?;
        Ok(obj
            .iter()
            .filter(|(k, _)| !k.ends_with(WALL_CLOCK_SUFFIX))
            .filter_map(|(k, v)| {
                let stats = v
                    .as_object()?
                    .iter()
                    .filter_map(|(s, n)| n.as_f64().map(|f| (s.clone(), f)))
                    .collect();
                Some((k.clone(), stats))
            })
            .collect())
    };
    const STATS: [&str; 8] = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"];
    let bh = histograms(&base)?;
    let ch = histograms(&cur)?;
    for (name, stats) in &bh {
        match ch.get(name) {
            None => findings.push(DiffFinding::HistogramRemoved { name: name.clone() }),
            Some(cur_stats) => {
                for &stat in &STATS {
                    let lookup = |list: &[(String, f64)]| {
                        list.iter().find(|(s, _)| s == stat).map(|&(_, v)| v)
                    };
                    if let (Some(before), Some(after)) = (lookup(stats), lookup(cur_stats)) {
                        if rel_change(before, after) > threshold {
                            findings.push(DiffFinding::HistogramDrift {
                                name: name.clone(),
                                stat,
                                before,
                                after,
                            });
                        }
                    }
                }
            }
        }
    }
    for name in ch.keys() {
        if !bh.contains_key(name) {
            findings.push(DiffFinding::HistogramAdded { name: name.clone() });
        }
    }

    Ok(findings)
}

/// Compares two remark JSONL streams line-by-line as multisets: a line
/// appearing more times in `current` than in `baseline` is
/// [`DiffFinding::RemarkAdded`], the reverse is
/// [`DiffFinding::RemarkVanished`]. Remark lines are fully
/// deterministic, so exact string comparison is the right granularity;
/// ordering differences alone do not produce findings.
pub fn diff_remarks(baseline: &str, current: &str) -> Result<Vec<DiffFinding>, String> {
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for (n, line) in baseline.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse(line).map_err(|e| format!("baseline remarks line {}: {e}", n + 1))?;
        *counts.entry(line).or_insert(0) -= 1;
    }
    for (n, line) in current.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parse(line).map_err(|e| format!("current remarks line {}: {e}", n + 1))?;
        *counts.entry(line).or_insert(0) += 1;
    }
    let mut findings = Vec::new();
    for (line, delta) in counts {
        if delta > 0 {
            findings.push(DiffFinding::RemarkAdded {
                line: line.to_string(),
                count: delta as u64,
            });
        } else if delta < 0 {
            findings.push(DiffFinding::RemarkVanished {
                line: line.to_string(),
                count: (-delta) as u64,
            });
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter("sim.accesses", 1000);
        m.counter("sim.misses", 125);
        m.record("cost.ratio", 4.0);
        m.record("cost.ratio", 8.0);
        m.record("pass.permute.ns", 12345.0);
        m
    }

    #[test]
    fn identical_snapshots_have_no_findings() {
        let j = registry().to_json();
        assert_eq!(diff_metrics(&j, &j, 0.0).unwrap(), vec![]);
    }

    #[test]
    fn perturbed_counter_is_reported() {
        let base = registry().to_json();
        let mut cur = registry();
        cur.counter("sim.misses", 1);
        let findings = diff_metrics(&base, &cur.to_json(), 0.0).unwrap();
        assert_eq!(
            findings,
            vec![DiffFinding::CounterChanged {
                name: "sim.misses".into(),
                before: 125,
                after: 126,
            }]
        );
        assert!(findings[0].to_string().contains("125 -> 126"));
    }

    #[test]
    fn threshold_suppresses_small_drift() {
        let base = registry().to_json();
        let mut cur = registry();
        cur.counter("sim.misses", 1); // 0.8% change
        assert_eq!(diff_metrics(&base, &cur.to_json(), 0.01).unwrap(), vec![]);
        cur.counter("sim.misses", 24); // now 20%
        assert_ne!(diff_metrics(&base, &cur.to_json(), 0.01).unwrap(), vec![]);
    }

    #[test]
    fn added_and_removed_names_always_report() {
        let base = registry().to_json();
        let mut cur = registry();
        cur.counter("new.counter", 7);
        cur.record("new.hist", 1.0);
        let findings = diff_metrics(&base, &cur.to_json(), f64::INFINITY).unwrap();
        assert!(findings.contains(&DiffFinding::CounterAdded {
            name: "new.counter".into(),
            value: 7,
        }));
        assert!(findings.contains(&DiffFinding::HistogramAdded {
            name: "new.hist".into(),
        }));
        let reversed = diff_metrics(&cur.to_json(), &base, f64::INFINITY).unwrap();
        assert!(reversed.contains(&DiffFinding::CounterRemoved {
            name: "new.counter".into(),
            value: 7,
        }));
        assert!(reversed.contains(&DiffFinding::HistogramRemoved {
            name: "new.hist".into(),
        }));
    }

    #[test]
    fn wall_clock_histograms_are_skipped() {
        let base = registry().to_json();
        let mut cur = registry();
        cur.record("pass.permute.ns", 999999.0); // timings differ run-to-run
        assert_eq!(diff_metrics(&base, &cur.to_json(), 0.0).unwrap(), vec![]);
    }

    #[test]
    fn histogram_drift_names_the_stat() {
        let base = registry().to_json();
        let mut cur = registry();
        cur.record("cost.ratio", 64.0);
        let findings = diff_metrics(&base, &cur.to_json(), 0.0).unwrap();
        assert!(findings.iter().any(
            |f| matches!(f, DiffFinding::HistogramDrift { name, stat, .. }
                if name == "cost.ratio" && *stat == "count")
        ));
        assert!(findings
            .iter()
            .any(|f| matches!(f, DiffFinding::HistogramDrift { stat, .. } if *stat == "max")));
    }

    #[test]
    fn remark_multiset_diff() {
        let base = "{\"pass\":\"permute\"}\n{\"pass\":\"fuse\"}\n{\"pass\":\"fuse\"}\n";
        let cur = "{\"pass\":\"fuse\"}\n{\"pass\":\"permute\"}\n{\"pass\":\"tile\"}\n";
        // Reordering alone is fine; one `fuse` vanished, one `tile` appeared.
        let findings = diff_remarks(base, cur).unwrap();
        assert_eq!(
            findings,
            vec![
                DiffFinding::RemarkVanished {
                    line: "{\"pass\":\"fuse\"}".into(),
                    count: 1,
                },
                DiffFinding::RemarkAdded {
                    line: "{\"pass\":\"tile\"}".into(),
                    count: 1,
                },
            ]
        );
        assert_eq!(diff_remarks(base, base).unwrap(), vec![]);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(diff_metrics("{", "{}", 0.0).is_err());
        assert!(diff_metrics("{}", "{}", 0.0).is_err(), "missing counters");
        assert!(diff_remarks("not json\n", "").is_err());
    }
}
