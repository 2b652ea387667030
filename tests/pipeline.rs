//! Cross-crate pipeline tests: the paper's three optimization steps
//! composed on real kernels, each stage verified bit-exactly.

use cmt_locality_repro::interp::assert_equivalent;
use cmt_locality_repro::locality::scalar::scalar_replace;
use cmt_locality_repro::locality::skew::skew_inner;
use cmt_locality_repro::locality::tile::tile_loop;
use cmt_locality_repro::locality::unroll::unroll_and_jam;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use cmt_locality_repro::suite::{kernels, stencils};

#[test]
fn matmul_three_step_pipeline() {
    let original = kernels::matmul("IJK");
    let model = CostModel::new(4);

    let mut p = original.clone();
    let r = compound(&mut p, &model);
    assert_eq!(r.nests_permuted, 1);

    tile_loop(&mut p, 0, 1, 4, 0).expect("tile K");
    unroll_and_jam(&mut p, 0, 1, 2).expect("jam J");
    let sr = scalar_replace(&mut p);
    assert_eq!(sr.replaced, 2);

    cmt_locality_repro::ir::validate::validate(&p).unwrap();
    assert_equivalent(&original, &p, &[16]);
    assert_equivalent(&original, &p, &[24]);
}

#[test]
fn pipeline_reduces_misses_on_small_cache() {
    use cmt_locality_repro::cache::{CacheConfig, ShardedCache};
    use cmt_locality_repro::interp::Layout;
    let original = kernels::matmul("IJK");
    let model = CostModel::new(4);
    let mut p = original.clone();
    let _ = compound(&mut p, &model);
    tile_loop(&mut p, 0, 1, 4, 0).expect("tile K");
    unroll_and_jam(&mut p, 0, 1, 2).expect("jam J");
    scalar_replace(&mut p);

    let misses = |prog: &cmt_locality_repro::ir::Program| {
        let layout = Layout::new(prog, &[64]).unwrap();
        let mut c = ShardedCache::new(CacheConfig::i860());
        layout.trace(prog, &mut c).unwrap();
        c.stats().warm_misses()
    };
    let before = misses(&original);
    let after = misses(&p);
    assert!(
        after * 2 < before,
        "pipeline should at least halve warm misses: {after} vs {before}"
    );
}

#[test]
fn sor_wavefront_skew_then_interchange() {
    // SOR's (1,0)/(0,1) vectors allow interchange directly, but skewing
    // first must stay correct too (the enabler composes with anything).
    let original = stencils::sor(true);
    let mut p = original.clone();
    {
        let body = p.body_mut();
        let cmt_locality_repro::ir::Node::Loop(root) = &mut body[0] else {
            panic!("nest expected")
        };
        skew_inner(root, 0, 1);
    }
    cmt_locality_repro::ir::validate::validate(&p).unwrap();
    assert_equivalent(&original, &p, &[12]);
}

#[test]
fn jacobi_pipeline_with_tiling() {
    let original = stencils::jacobi2d("IJ");
    let model = CostModel::new(4);
    let mut p = original.clone();
    let r = compound(&mut p, &model);
    assert_eq!(r.nests_permuted, 1);
    // Jacobi has no loop-carried dependences at all: any band tiles.
    tile_loop(&mut p, 0, 0, 5, 0).expect("tile outer");
    cmt_locality_repro::ir::validate::validate(&p).unwrap();
    // Trip of the transformed outer loop is N−2: choose N so 5 | N−2.
    assert_equivalent(&original, &p, &[17]);
}

#[test]
fn lu_after_distribution_still_tileable_subnest() {
    // After compound distributes LU, the update copy is a perfect JI
    // subnest under K; tiling machinery must reject the *imperfect* root
    // gracefully rather than corrupt it.
    let original = stencils::lu_kij();
    let model = CostModel::new(4);
    let mut p = original.clone();
    let r = compound(&mut p, &model);
    assert_eq!(r.distributions, 1);
    let err = tile_loop(&mut p, 0, 1, 4, 0).unwrap_err();
    assert_eq!(
        err,
        cmt_locality_repro::locality::tile::TileError::NotPerfect
    );
    assert_equivalent(&original, &p, &[12]);
}

#[test]
fn scalar_replacement_after_compound_across_suite_kernels() {
    let model = CostModel::new(4);
    for original in [
        kernels::matmul("IJK"),
        kernels::adi_scalarized(),
        stencils::jacobi2d("IJ"),
        stencils::vpenta_rowwise(),
    ] {
        let mut p = original.clone();
        let _ = compound(&mut p, &model);
        let _ = scalar_replace(&mut p);
        cmt_locality_repro::ir::validate::validate(&p)
            .unwrap_or_else(|e| panic!("{}: {e}", original.name()));
        assert_equivalent(&original, &p, &[12]);
    }
}
