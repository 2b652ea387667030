//! Structural checks of the transformed IR against the paper's printed
//! figures: the rewrites must produce the *same code shapes* the paper
//! shows, not merely equivalent ones.

use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};
use cmt_locality_repro::suite::kernels;

/// Figure 3(c): the ADI scalarized nest becomes
/// `DO K { DO I { S1; S2 } }`.
#[test]
fn adi_transformed_shape_matches_fig3c() {
    let mut p = kernels::adi_scalarized();
    let _ = compound(&mut p, &CostModel::new(4));
    let text = program_to_string(&p);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[1].trim().starts_with("DO K"), "{text}");
    assert!(lines[2].trim().starts_with("DO I"), "{text}");
    // Both statements in the same innermost body.
    let stmts = lines
        .iter()
        .filter(|l| !l.trim().starts_with("DO") && l.contains('='))
        .count();
    assert_eq!(stmts, 2, "{text}");
    assert!(
        text.contains("X(I,K) = X(I,K) - X(I-1,K) * A(I,K) / B(I-1,K)"),
        "{text}"
    );
}

/// Figure 7(b): Cholesky becomes
/// `DO K { S1; DO I {S2}; DO J { DO I {S3} } }` with triangular bounds
/// `J = K+1..N`, inner `I = J..N`.
#[test]
fn cholesky_transformed_shape_matches_fig7b() {
    let mut p = kernels::cholesky_kij();
    let _ = compound(&mut p, &CostModel::new(4));
    let text = program_to_string(&p);
    assert!(text.contains("DO K = 1, N"), "{text}");
    assert!(text.contains("A(K,K) = SQRT(A(K,K))"), "{text}");
    // The S2 copy: DO I = K+1, N.
    assert!(text.contains("DO I = K+1, N"), "{text}");
    // The interchanged S3 copy: DO J = K+1, N then DO I = J, N.
    assert!(text.contains("DO J = K+1, N"), "{text}");
    assert!(text.contains("DO I = J, N"), "{text}");
    assert!(text.contains("A(I,J) = A(I,J) - A(I,K) * A(J,K)"), "{text}");
}

/// The matmul rewrite prints as the JKI form.
#[test]
fn matmul_transformed_shape_is_jki() {
    let mut p = kernels::matmul("IJK");
    let _ = compound(&mut p, &CostModel::new(4));
    let text = program_to_string(&p);
    let loop_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.trim().starts_with("DO "))
        .collect();
    assert_eq!(loop_lines.len(), 3);
    assert!(loop_lines[0].contains("DO J"), "{text}");
    assert!(loop_lines[1].contains("DO K"), "{text}");
    assert!(loop_lines[2].contains("DO I"), "{text}");
}

/// `gmtry`: distribution/permutation gives the update loop unit stride —
/// the innermost loop must be `I` (the contiguous dimension).
#[test]
fn gmtry_gets_unit_stride_innermost() {
    let model = CostModel::new(4);
    let mut p = kernels::gmtry_rowwise();
    let report = compound(&mut p, &model);
    // Full memory order may be blocked, but the inner loop must end up
    // in position (the paper's gmtry win is exactly the unit-stride
    // innermost loop).
    assert!(report.inner_permuted >= 1, "{report:#?}");
    assert!(model.analyze(&p, p.nests()[0]).inner_loop_in_position());
}
