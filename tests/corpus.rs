//! End-to-end over the Fortran-text corpus: every `tests/corpus/*.f`
//! program parses, optimizes, stays semantically identical, and
//! round-trips through source emission.

use cmt_locality_repro::interp::assert_equivalent;
use cmt_locality_repro::ir::parse::parse_program;
use cmt_locality_repro::ir::pretty::program_to_source;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use std::fs;
use std::path::PathBuf;

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("f") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((name, fs::read_to_string(&path).expect("readable")));
        }
    }
    out.sort();
    assert!(out.len() >= 6, "corpus should have at least 6 programs");
    out
}

#[test]
fn corpus_parses_and_optimizes_safely() {
    let model = CostModel::new(4);
    for (name, src) in corpus() {
        let original = parse_program(&src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let mut transformed = original.clone();
        let report = compound(&mut transformed, &model);
        cmt_locality_repro::ir::validate::validate(&transformed)
            .unwrap_or_else(|e| panic!("{name}: invalid after compound: {e}"));
        assert_equivalent(&original, &transformed, &[13]);
        // Every corpus program has at least one nest the optimizer looked
        // at.
        assert!(report.nests_total >= 1, "{name}: {report:#?}");
    }
}

#[test]
fn corpus_round_trips_through_source() {
    for (name, src) in corpus() {
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let emitted = program_to_source(&p);
        let q = parse_program(&emitted)
            .unwrap_or_else(|e| panic!("{name}: re-parse failed: {e}\n{emitted}"));
        assert_eq!(
            program_to_source(&q),
            emitted,
            "{name}: emission not a fixed point"
        );
    }
}

#[test]
fn corpus_expected_transformations() {
    let model = CostModel::new(4);
    let expect: &[(&str, &str)] = &[
        ("matmul", "permuted"),
        ("cholesky", "distributed"),
        ("adi", "fusion-enabled"),
        ("jacobi", "permuted"),
        ("pipeline", "fused"),
        ("wavefront", "permuted"),
    ];
    let corpus = corpus();
    for (name, what) in expect {
        let (_, src) = corpus
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from corpus"));
        let mut p = parse_program(src).unwrap();
        let r = compound(&mut p, &model);
        let ok = match *what {
            "permuted" => r.nests_permuted >= 1,
            "distributed" => r.distributions >= 1,
            "fusion-enabled" => r.fusion_enabled_permutation >= 1,
            "fused" => r.nests_fused >= 2,
            _ => unreachable!(),
        };
        assert!(ok, "{name}: expected {what}, got {r:#?}");
    }
}

#[test]
fn optimized_corpus_improves_small_cache_hit_rates() {
    use cmt_locality_repro::cache::{CacheConfig, ShardedCache};
    use cmt_locality_repro::interp::Layout;
    let model = CostModel::new(4);
    for (name, src) in corpus() {
        let original = parse_program(&src).unwrap();
        let mut transformed = original.clone();
        let _ = compound(&mut transformed, &model);
        let rate = |p: &cmt_locality_repro::ir::Program| {
            let layout = Layout::new(p, &[96]).unwrap();
            let mut c = ShardedCache::new(CacheConfig::i860());
            layout.trace(p, &mut c).unwrap();
            c.stats().hit_rate_excluding_cold()
        };
        let before = rate(&original);
        let after = rate(&transformed);
        assert!(
            after + 0.02 >= before,
            "{name}: hit rate regressed {before:.3} -> {after:.3}"
        );
    }
}
