//! Ranked hotspot profiles: the `profile.json` artifact (parser, diff,
//! gate and report section), and ranking-agreement metrics (top-K
//! overlap, Kendall tau).

use crate::profiler::{NestProfile, ProgramProfile};
use cmt_cache::CacheConfig;
use cmt_obs::json::{self, ObjectWriter, Value};
use cmt_obs::{Artifact, Findings, ObsSink, Remark, RemarkKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One ranked nest in a hotspot profile.
#[derive(Clone, Debug, PartialEq)]
pub struct HotspotEntry {
    /// 1-based rank (1 = worst offender).
    pub rank: usize,
    /// Owning program.
    pub program: String,
    /// Stable nest label.
    pub nest: String,
    /// Estimated full-trace accesses.
    pub accesses: u64,
    /// Accesses actually simulated.
    pub sampled_accesses: u64,
    /// Sampling windows spanned / simulated.
    pub windows: u64,
    /// Windows simulated.
    pub windows_sampled: u64,
    /// Estimated full-trace misses — the ranking key.
    pub est_misses: u64,
    /// Estimated miss rate.
    pub est_miss_rate: f64,
    /// True when nothing was extrapolated.
    pub exact: bool,
    /// Set by the escalation driver when this nest was escalated to
    /// full simulation.
    pub escalated: bool,
    /// Full-simulation miss count, when the nest was escalated.
    pub full_misses: Option<u64>,
    /// Per-array attribution: `(name, est_misses, share)`.
    pub arrays: Vec<(String, u64, f64)>,
}

impl HotspotEntry {
    /// The key identifying a nest across profiles.
    pub fn key(&self) -> (&str, &str) {
        (&self.program, &self.nest)
    }
}

/// A ranked, policy-stamped hotspot profile — the content of
/// `{name}.profile.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HotspotProfile {
    /// Sampling policy description (see `SamplePolicy::describe`).
    pub policy: String,
    /// Cache geometry description.
    pub cache: String,
    /// Parameter value the corpus was profiled at.
    pub n: i64,
    /// Entries, rank order (worst first).
    pub entries: Vec<HotspotEntry>,
}

/// Compact description of a cache geometry for the profile header.
pub fn describe_cache(cfg: &CacheConfig) -> String {
    format!("{}B/{}-way/{}B-line", cfg.size(), cfg.assoc(), cfg.line())
}

/// Flattens per-program profiles into one ranking. Order: estimated
/// misses (desc), then estimated accesses (desc), then label (asc) — a
/// total order, so the ranking is deterministic even among ties.
pub fn rank_hotspots(
    profiles: &[ProgramProfile],
    policy: &str,
    cache: &str,
    n: i64,
) -> HotspotProfile {
    let mut nests: Vec<&NestProfile> = profiles.iter().flat_map(|p| p.nests.iter()).collect();
    nests.sort_by(|a, b| {
        b.est
            .misses
            .cmp(&a.est.misses)
            .then(b.accesses.cmp(&a.accesses))
            .then(a.label.cmp(&b.label))
    });
    let entries = nests
        .into_iter()
        .enumerate()
        .map(|(i, p)| HotspotEntry {
            rank: i + 1,
            program: p.program.clone(),
            nest: p.label.clone(),
            accesses: p.accesses,
            sampled_accesses: p.sampled_accesses,
            windows: p.windows,
            windows_sampled: p.windows_sampled,
            est_misses: p.est.misses,
            est_miss_rate: p.est_miss_rate(),
            exact: p.exact,
            escalated: false,
            full_misses: None,
            arrays: p
                .arrays
                .iter()
                .map(|a| (a.name.clone(), a.est_misses, a.share))
                .collect(),
        })
        .collect();
    HotspotProfile {
        policy: policy.to_string(),
        cache: cache.to_string(),
        n,
        entries,
    }
}

impl HotspotProfile {
    /// Gate: the sampled pass may simulate at most this fraction of the
    /// corpus accesses (policy `full` is exempt).
    pub const MAX_SAMPLED_FRACTION: f64 = 0.10;

    /// Gate on a ground-truth check sweep: the sampled top-K must agree
    /// this well with full simulation. The profile holds no ground
    /// truth, so the sweep applies it to its agreement report.
    pub const MIN_TOP_K_AGREEMENT: f64 = 1.0;

    /// Fraction of the profiled accesses the sampler simulated (0 for
    /// an empty profile).
    pub fn sampled_fraction(&self) -> f64 {
        let total: u64 = self.entries.iter().map(|e| e.accesses).sum();
        let sampled: u64 = self.entries.iter().map(|e| e.sampled_accesses).sum();
        if total == 0 {
            0.0
        } else {
            sampled as f64 / total as f64
        }
    }

    /// Emits one `profile.hotspot` Analysis remark per entry, in rank
    /// order — the run-report surface of the ranking.
    pub fn emit_remarks(&self, obs: &mut dyn ObsSink) {
        if !obs.enabled() {
            return;
        }
        let total = self.entries.len();
        for e in &self.entries {
            obs.remark(
                Remark::new("profile.hotspot", e.nest.clone(), RemarkKind::Analysis)
                    .reason(format!(
                        "rank {}/{}: est {} misses (rate {:.4}) from {}/{} sampled accesses{}",
                        e.rank,
                        total,
                        e.est_misses,
                        e.est_miss_rate,
                        e.sampled_accesses,
                        e.accesses,
                        if e.exact { "; exact" } else { "" },
                    ))
                    .cost_before(e.est_misses as f64),
            );
        }
    }
}

impl Artifact for HotspotProfile {
    const SUFFIX: &'static str = "profile.json";

    fn to_json(&self) -> String {
        let entries = json::array(self.entries.iter().map(|e| {
            let mut w = ObjectWriter::new();
            w.field_u64("rank", e.rank as u64)
                .field_str("program", &e.program)
                .field_str("nest", &e.nest)
                .field_u64("accesses", e.accesses)
                .field_u64("sampled_accesses", e.sampled_accesses)
                .field_u64("windows", e.windows)
                .field_u64("windows_sampled", e.windows_sampled)
                .field_u64("est_misses", e.est_misses)
                .field_raw("est_miss_rate", &format!("{:.6}", e.est_miss_rate))
                .field_raw("exact", if e.exact { "true" } else { "false" })
                .field_raw("escalated", if e.escalated { "true" } else { "false" });
            if let Some(fm) = e.full_misses {
                w.field_u64("full_misses", fm);
            }
            let arrays = json::array(e.arrays.iter().map(|(name, misses, share)| {
                let mut aw = ObjectWriter::new();
                aw.field_str("name", name)
                    .field_u64("est_misses", *misses)
                    .field_raw("share", &format!("{share:.6}"));
                aw.finish()
            }));
            w.field_raw("arrays", &arrays);
            w.finish()
        }));
        let mut w = ObjectWriter::new();
        w.field_str("policy", &self.policy)
            .field_str("cache", &self.cache)
            .field_raw("n", &self.n.to_string())
            .field_raw("entries", &entries);
        w.finish() + "\n"
    }

    fn parse(text: &str) -> Result<HotspotProfile, String> {
        let v = json::parse(text)?;
        let mut out = HotspotProfile {
            policy: v.str_field("policy")?,
            cache: v.str_field("cache")?,
            n: v.f64_field("n")? as i64,
            entries: Vec::new(),
        };
        for e in v.array_field("entries")? {
            let arrays = e
                .array_field("arrays")?
                .iter()
                .map(|a| {
                    Ok((
                        a.str_field("name")?,
                        a.u64_field("est_misses")?,
                        a.f64_field("share")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            out.entries.push(HotspotEntry {
                rank: e.u64_field("rank")? as usize,
                program: e.str_field("program")?,
                nest: e.str_field("nest")?,
                accesses: e.u64_field("accesses")?,
                sampled_accesses: e.u64_field("sampled_accesses")?,
                windows: e.u64_field("windows")?,
                windows_sampled: e.u64_field("windows_sampled")?,
                est_misses: e.u64_field("est_misses")?,
                est_miss_rate: e.f64_field("est_miss_rate")?,
                exact: e.bool_field("exact")?,
                escalated: e.bool_field("escalated")?,
                full_misses: e.get("full_misses").and_then(Value::as_u64),
                arrays,
            });
        }
        Ok(out)
    }

    /// Compares rankings, all findings deterministic: a policy/cache
    /// stamp change, nests on one side only, and rank moves always
    /// count; per-nest miss estimates with relative change above
    /// `threshold` and per-array shares with absolute change above it
    /// count as drift. Order: header, then nests by label.
    fn diff(&self, current: &Self, threshold: f64) -> Findings {
        let mut f = Vec::new();
        let stamp = |p: &HotspotProfile| format!("{} @ {} (n={})", p.policy, p.cache, p.n);
        if stamp(self) != stamp(current) {
            f.push(format!(
                "profile policy changed: {} -> {}",
                stamp(self),
                stamp(current)
            ));
        }
        let index = |p: &HotspotProfile| -> BTreeMap<String, usize> {
            p.entries
                .iter()
                .enumerate()
                .map(|(i, e)| (format!("{}\u{1f}{}", e.program, e.nest), i))
                .collect()
        };
        let (bi, ci) = (index(self), index(current));
        for (key, &b_at) in &bi {
            let b = &self.entries[b_at];
            let Some(&c_at) = ci.get(key) else {
                f.push(format!("nest removed: {}", b.nest));
                continue;
            };
            let c = &current.entries[c_at];
            if b.rank != c.rank {
                f.push(format!(
                    "rank changed: {}: #{} -> #{}",
                    b.nest, b.rank, c.rank
                ));
            }
            let rel = b.est_misses.abs_diff(c.est_misses) as f64 / b.est_misses.max(1) as f64;
            if rel > threshold {
                let sign = if c.est_misses >= b.est_misses {
                    1.0
                } else {
                    -1.0
                };
                f.push(format!(
                    "est misses drifted: {}: {} -> {} ({:+.1}%)",
                    b.nest,
                    b.est_misses,
                    c.est_misses,
                    rel * 100.0 * sign
                ));
            }
            let c_share: BTreeMap<&str, f64> = c
                .arrays
                .iter()
                .map(|(name, _, share)| (name.as_str(), *share))
                .collect();
            for (name, _, before) in &b.arrays {
                let after = c_share.get(name.as_str()).copied().unwrap_or(0.0);
                if (before - after).abs() > threshold {
                    f.push(format!(
                        "attribution drifted: {} array {name}: share {before:.3} -> {after:.3}",
                        b.nest
                    ));
                }
            }
        }
        for (key, &c_at) in &ci {
            if !bi.contains_key(key) {
                f.push(format!("nest added: {}", current.entries[c_at].nest));
            }
        }
        Findings {
            deterministic: f,
            informational: Vec::new(),
        }
    }

    fn gate(&self) -> Vec<String> {
        let frac = self.sampled_fraction();
        if self.policy != "full" && frac > Self::MAX_SAMPLED_FRACTION {
            vec![format!(
                "sampled fraction {frac:.4} exceeds {}",
                Self::MAX_SAMPLED_FRACTION
            )]
        } else {
            Vec::new()
        }
    }

    /// The ranking head (top 10) with escalation stamps.
    fn report(&self, out: &mut String) {
        let _ = writeln!(out, "\n## Hotspots ({} nests)\n", self.entries.len());
        let _ = writeln!(
            out,
            "Policy `{}` on `{}` at n={}; top {} of the ranking:\n",
            self.policy,
            self.cache,
            self.n,
            self.entries.len().min(10)
        );
        if self.entries.is_empty() {
            return;
        }
        out.push_str(
            "| rank | nest | est misses | miss rate | escalated | full misses | top array |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|\n");
        for e in self.entries.iter().take(10) {
            let full = e
                .full_misses
                .map(|m| m.to_string())
                .unwrap_or_else(|| "—".to_string());
            let top_array = e
                .arrays
                .first()
                .map(|(name, _, share)| format!("{name} ({:.0}%)", share * 100.0))
                .unwrap_or_else(|| "—".to_string());
            let _ = writeln!(
                out,
                "| {} | `{}` | {} | {:.4} | {} | {} | {} |",
                e.rank,
                e.nest,
                e.est_misses,
                e.est_miss_rate,
                if e.escalated { "yes" } else { "no" },
                full,
                top_array,
            );
        }
    }
}

/// Fraction of `a`'s top-`k` nests that also appear in `b`'s top-`k`
/// (set agreement, order within the top-K ignored). `1.0` when both
/// rankings are shorter than two entries.
pub fn top_k_agreement(a: &HotspotProfile, b: &HotspotProfile, k: usize) -> f64 {
    let k = k.min(a.entries.len()).min(b.entries.len());
    if k == 0 {
        return 1.0;
    }
    let tops = |p: &HotspotProfile| -> Vec<(String, String)> {
        p.entries[..k]
            .iter()
            .map(|e| (e.program.clone(), e.nest.clone()))
            .collect()
    };
    let ta = tops(a);
    let tb = tops(b);
    let hits = ta.iter().filter(|key| tb.contains(key)).count();
    hits as f64 / k as f64
}

/// Kendall rank correlation between two profiles over their common
/// nests, in `[-1, 1]`; `1.0` when fewer than two nests are shared.
pub fn kendall_tau(a: &HotspotProfile, b: &HotspotProfile) -> f64 {
    let rank_b: Vec<((&str, &str), usize)> = b.entries.iter().map(|e| (e.key(), e.rank)).collect();
    let pairs: Vec<(usize, usize)> = a
        .entries
        .iter()
        .filter_map(|e| {
            let key = e.key();
            rank_b
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, rb)| (e.rank, *rb))
        })
        .collect();
    let m = pairs.len();
    if m < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..m {
        for j in (i + 1)..m {
            let da = pairs[i].0.cmp(&pairs[j].0);
            let db = pairs[i].1.cmp(&pairs[j].1);
            if da == db {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (m * (m - 1) / 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rank: usize, program: &str, nest: &str, misses: u64) -> HotspotEntry {
        HotspotEntry {
            rank,
            program: program.to_string(),
            nest: nest.to_string(),
            accesses: misses * 10,
            sampled_accesses: misses,
            windows: 4,
            windows_sampled: 1,
            est_misses: misses,
            est_miss_rate: 0.1,
            exact: false,
            escalated: false,
            full_misses: None,
            arrays: vec![("A".to_string(), misses, 1.0)],
        }
    }

    fn profile(entries: Vec<HotspotEntry>) -> HotspotProfile {
        HotspotProfile {
            policy: "every-kth(k=16,window=256,seed=0x1)".to_string(),
            cache: "8192B/2-way/32B-line".to_string(),
            n: 64,
            entries,
        }
    }

    #[test]
    fn json_round_trips() {
        let mut p = profile(vec![
            entry(1, "x", "x/nest0:I.J", 100),
            entry(2, "y", "y/nest1:K", 50),
        ]);
        p.entries[0].escalated = true;
        p.entries[0].full_misses = Some(104);
        let text = p.to_json();
        assert!(text.ends_with('\n'));
        let q = HotspotProfile::parse(&text).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn gate_bounds_the_sampled_fraction_unless_full() {
        // `entry` samples a tenth of its accesses: exactly at the bound.
        let mut p = profile(vec![entry(1, "x", "n0", 100)]);
        assert!(p.gate().is_empty(), "{:?}", p.gate());
        p.entries[0].sampled_accesses += 1;
        assert_eq!(p.gate().len(), 1);
        p.policy = "full".to_string();
        assert!(p.gate().is_empty());
    }

    #[test]
    fn empty_profile_is_valid_json() {
        let p = profile(Vec::new());
        let q = HotspotProfile::parse(&p.to_json()).unwrap();
        assert!(q.entries.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(HotspotProfile::parse("not json").is_err());
        assert!(HotspotProfile::parse("{}").is_err());
        assert!(HotspotProfile::parse(r#"{"policy":"p","cache":"c","n":1}"#).is_err());
    }

    #[test]
    fn top_k_agreement_counts_set_overlap() {
        let a = profile(vec![
            entry(1, "x", "n0", 100),
            entry(2, "y", "n1", 90),
            entry(3, "z", "n2", 80),
        ]);
        // Same top-2 set, swapped order: still perfect top-2 agreement.
        let b = profile(vec![
            entry(1, "y", "n1", 95),
            entry(2, "x", "n0", 94),
            entry(3, "w", "n3", 10),
        ]);
        assert_eq!(top_k_agreement(&a, &b, 2), 1.0);
        assert!((top_k_agreement(&a, &b, 3) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(top_k_agreement(&profile(vec![]), &profile(vec![]), 5), 1.0);
    }

    #[test]
    fn kendall_tau_detects_order() {
        let a = profile(vec![
            entry(1, "x", "n0", 100),
            entry(2, "y", "n1", 90),
            entry(3, "z", "n2", 80),
        ]);
        assert_eq!(kendall_tau(&a, &a), 1.0);
        let mut rev = a.clone();
        rev.entries.reverse();
        for (i, e) in rev.entries.iter_mut().enumerate() {
            e.rank = i + 1;
        }
        assert_eq!(kendall_tau(&a, &rev), -1.0);
    }

    #[test]
    fn remarks_cover_every_entry() {
        use cmt_obs::CollectSink;
        let p = profile(vec![entry(1, "x", "x/nest0:I.J", 100)]);
        let mut sink = CollectSink::new();
        p.emit_remarks(&mut sink);
        assert_eq!(sink.remarks.len(), 1);
        assert_eq!(sink.remarks[0].pass, "profile.hotspot");
        assert!(sink.remarks[0].reason.contains("rank 1/1"));
    }

    fn shares(rank: usize, nest: &str, misses: u64, arrays: &[(&str, f64)]) -> HotspotEntry {
        HotspotEntry {
            arrays: arrays
                .iter()
                .map(|(n, s)| (n.to_string(), (misses as f64 * s) as u64, *s))
                .collect(),
            ..entry(rank, "p", nest, misses)
        }
    }

    #[test]
    fn diff_reports_rank_swaps_at_any_threshold() {
        let a = profile(vec![shares(1, "p/nest0:I", 100, &[("A", 1.0)])]);
        assert_eq!(a.diff(&a, 0.05), Findings::default());
        let a = profile(vec![
            shares(1, "p/nest0:I", 100, &[]),
            shares(2, "p/nest1:J", 90, &[]),
        ]);
        let b = profile(vec![
            shares(1, "p/nest1:J", 95, &[]),
            shares(2, "p/nest0:I", 94, &[]),
        ]);
        // Generous threshold: miss drift is under it, rank moves remain.
        let f = a.diff(&b, 0.5).deterministic;
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.contains(&"rank changed: p/nest0:I: #1 -> #2".to_string()));
    }

    #[test]
    fn diff_threshold_gates_numeric_drift() {
        let a = profile(vec![shares(1, "p/nest0:I", 100, &[("A", 0.6), ("B", 0.4)])]);
        let b = profile(vec![shares(1, "p/nest0:I", 104, &[("A", 0.7), ("B", 0.3)])]);
        assert!(a.diff(&b, 0.2).deterministic.is_empty());
        let tight = a.diff(&b, 0.01).deterministic;
        assert!(tight.contains(&"est misses drifted: p/nest0:I: 100 -> 104 (+4.0%)".to_string()));
        let drifted = tight
            .iter()
            .filter(|f| f.starts_with("attribution drifted"))
            .count();
        assert_eq!(drifted, 2, "{tight:?}");
    }

    #[test]
    fn diff_surfaces_added_removed_and_policy_changes() {
        let a = profile(vec![shares(1, "p/nest0:I", 100, &[])]);
        let mut b = profile(vec![shares(1, "p/nest1:J", 100, &[])]);
        b.policy = "full".to_string();
        let f = a.diff(&b, 0.05).deterministic;
        assert!(f[0].starts_with("profile policy changed:"), "{f:?}");
        assert!(f.contains(&"nest removed: p/nest0:I".to_string()), "{f:?}");
        assert!(f.contains(&"nest added: p/nest1:J".to_string()), "{f:?}");
    }
}
