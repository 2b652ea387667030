//! The expected outputs the benchmark checks against: cross-checked
//! once against independent references, and shown to catch a wrong
//! value.

use cmt_bench::fmt::pct;
use cmt_benchmark::{expected_path, run, Config, Oracle};
use cmt_cache::{CacheConfig, CacheStats, LegacyCache};
use cmt_interp::{Machine, TraceSink};
use cmt_ir::canon::nest_key;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_ir::program::Program;
use cmt_locality::compound::compound;
use cmt_locality::model::CostModel;
use cmt_obs::json::{self, Value};
use cmt_obs::NullObs;
use cmt_resilience::{supervise, FaultPlan, PipelineSpec, SupervisePolicy};
use cmt_suite::{kernels, suite};
use cmt_verify::{generate, VerifyMode};
use std::collections::HashMap;

fn expected(workload: &str) -> String {
    std::fs::read_to_string(expected_path(workload)).expect("expected outputs are committed")
}

/// A `paper_tables` line: item name and its (cache1, cache2) stats per
/// simulated version.
fn parse_sims(line: &str) -> (String, Vec<[CacheStats; 2]>) {
    let mut words = line.split(' ');
    let name = words.next().expect("named").to_string();
    let nums: Vec<u64> = words.map(|w| w.parse().expect("a count")).collect();
    let stats: Vec<CacheStats> = nums
        .chunks(4)
        .map(|c| CacheStats {
            accesses: c[0],
            hits: c[1],
            misses: c[2],
            cold_misses: c[3],
        })
        .collect();
    (name, stats.chunks(2).map(|p| [p[0], p[1]]).collect())
}

#[test]
fn paper_tables_expected_reproduces_the_committed_table4() {
    let table = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/table4_hit_rates.txt"
    ))
    .expect("results/table4_hit_rates.txt is committed");
    let rows: HashMap<&str, Vec<&str>> = table
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|w| w.len() == 9)
        .map(|w| (w[0], w[1..].to_vec()))
        .collect();
    let mut checked = 0;
    for line in expected("paper_tables").lines() {
        let (name, sims) = parse_sims(line);
        let [opt_orig, opt_final, whole_orig, whole_final] = sims[..] else {
            continue; // a Figure 2 item
        };
        // Table 4's column order: opt c1 orig, opt c1 final, opt c2 orig, …
        let rates: Vec<String> = [
            opt_orig[0],
            opt_final[0],
            opt_orig[1],
            opt_final[1],
            whole_orig[0],
            whole_final[0],
            whole_orig[1],
            whole_final[1],
        ]
        .iter()
        .map(|s| pct(s.hit_rate_excluding_cold()))
        .collect();
        assert_eq!(
            rows.get(name.as_str()),
            Some(&rates.iter().map(String::as_str).collect()),
            "{name}"
        );
        checked += 1;
    }
    assert_eq!(checked, 34, "every Table 4 row");
}

/// Both paper caches as the seed-era reference simulator.
struct Legacy {
    caches: [LegacyCache; 2],
    offset: u64,
}

impl TraceSink for Legacy {
    fn access(&mut self, addr: u64, is_write: bool) {
        for c in &mut self.caches {
            c.access(addr + self.offset, is_write);
        }
    }
}

impl Legacy {
    fn new() -> Legacy {
        Legacy {
            caches: [
                LegacyCache::new(CacheConfig::rs6000()),
                LegacyCache::new(CacheConfig::i860()),
            ],
            offset: 0,
        }
    }

    fn run(&mut self, program: &Program, n: i64, offset: u64) -> [CacheStats; 2] {
        self.offset = offset;
        let params = vec![n; program.params().len()];
        let mut m = Machine::new(program, &params).expect("allocation");
        m.run(program, self).expect("execution");
        [self.caches[0].stats(), self.caches[1].stats()]
    }
}

/// Replays a few `paper_tables` items through `LegacyCache`, which
/// shares no code with the production engine. The cheapest items keep
/// an unoptimized test build fast; the equivalence suites of the
/// workspace cover the engines over the whole corpus.
#[test]
fn paper_tables_expected_matches_legacy_replay() {
    let expected: HashMap<String, Vec<[CacheStats; 2]>> =
        expected("paper_tables").lines().map(parse_sims).collect();
    let cost = CostModel::new(4);
    for model in suite()
        .into_iter()
        .filter(|m| matches!(m.spec.name, "ora" | "tomcatv"))
    {
        let n = model.spec.sim_n;
        let mut transformed = model.optimized.clone();
        compound(&mut transformed, &cost);
        let mut sims = Vec::new();
        for opt in [&model.optimized, &transformed] {
            let mut legacy = Legacy::new();
            sims.push(legacy.run(opt, n, 0));
            sims.push(legacy.run(&model.rest, n, 1 << 40));
        }
        // Run order is opt, whole per version; expected order is
        // opt_orig, opt_final, whole_orig, whole_final.
        let replayed = vec![sims[0], sims[2], sims[1], sims[3]];
        assert_eq!(expected[model.spec.name], replayed, "{}", model.spec.name);
    }
    let (order, p) = kernels::matmul_orders().swap_remove(0);
    let replayed = vec![Legacy::new().run(&p, 128, 0)];
    assert_eq!(expected[&format!("fig2-{order}")], replayed);
}

/// Recomputes the server's expected answers without the server: the
/// supervised pipeline as the server configures it, then a
/// `LegacyCache` replay of the optimized program on the RS/6000 cache,
/// whose statistics the server reports. Programs up to 50 000 accesses
/// keep an unoptimized test build fast; they are over half of both
/// files.
#[test]
fn serve_expected_matches_an_independent_computation() {
    let kernels: HashMap<String, Program> = kernels::paper_kernels()
        .into_iter()
        .map(|k| (k.name().to_string(), k))
        .collect();
    let cost = CostModel::new(CacheConfig::rs6000().cls_elements());
    let mut checked = 0;
    for workload in ["serve_hot", "serve_cold"] {
        for line in expected(workload).lines() {
            let (name, reply) = line.split_once(' ').expect("a name and a reply");
            let doc = json::parse(reply).expect("a JSON reply");
            let field = |k: &str| doc.get(k).and_then(Value::as_u64).expect(k);
            if field("accesses") > 50_000 {
                continue;
            }
            let program = match name.strip_prefix("gen") {
                Some(seed) => generate(seed.parse().expect("a generator seed")),
                None => kernels[name].clone(),
            };
            let parsed = parse_program(&program_to_source(&program)).expect("source parses");
            let mut optimized = parsed.clone();
            let run = supervise(
                &mut optimized,
                &cost,
                &PipelineSpec::default(),
                &VerifyMode::Off,
                &SupervisePolicy::default(),
                &mut FaultPlan::none(),
                &mut NullObs,
            );
            let [rs6000, _] = Legacy::new().run(&optimized, 24, 0);
            assert_eq!(
                doc.get("key").and_then(Value::as_str),
                Some(nest_key(&parsed).to_hex().as_str()),
                "{workload} {name}"
            );
            assert_eq!(
                (field("n"), field("steps"), field("failures")),
                (24, run.steps_committed as u64, run.failures.len() as u64),
                "{workload} {name}"
            );
            assert_eq!(
                (field("accesses"), field("misses")),
                (rs6000.accesses, rs6000.misses),
                "{workload} {name}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 140, "only {checked} answers checked");
}

#[test]
fn a_corrupted_expected_value_is_caught() {
    let cfg = Config {
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: true,
    };
    let outcome = run("profile_sampled", &cfg).expect("workload runs");
    let text = expected("profile_sampled");
    let oracle = Oracle::new(&text);
    assert!(outcome.outputs.iter().all(|l| oracle.accepts(l)));

    // One estimated miss count off by one.
    let line = &outcome.outputs[0];
    let mut words: Vec<String> = line.split(' ').map(str::to_string).collect();
    let last = words.len() - 2;
    words[last] = (words[last].parse::<u64>().expect("a count") + 1).to_string();
    let corrupted = text.replace(line.as_str(), &words.join(" "));
    let oracle = Oracle::new(&corrupted);
    assert!(!oracle.accepts(line));
    assert!(outcome.outputs[1..].iter().all(|l| oracle.accepts(l)));
}
