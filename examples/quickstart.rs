//! Quickstart: build a loop nest, ask the cost model for memory order,
//! run the compound transformation, and verify the rewrite end-to-end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cmt_locality_repro::interp;
use cmt_locality_repro::ir::build::ProgramBuilder;
use cmt_locality_repro::ir::expr::Expr;
use cmt_locality_repro::ir::pretty::program_to_string;
use cmt_locality_repro::locality::{compound::compound, model::CostModel};

fn main() {
    // A Fortran-style nest that strides across rows:
    //   DO I = 1, N
    //     DO J = 1, N
    //       C(I,J) = A(I,J) + B(I,J)
    let mut b = ProgramBuilder::new("quickstart");
    let n = b.param("N");
    let a = b.matrix("A", n);
    let bb = b.matrix("B", n);
    let c = b.matrix("C", n);
    b.loop_("I", 1, n, |b| {
        b.loop_("J", 1, n, |b| {
            let (i, j) = (b.var("I"), b.var("J"));
            let lhs = b.at(c, [i, j]);
            let rhs = Expr::load(b.at(a, [i, j])) + Expr::load(b.at(bb, [i, j]));
            b.assign(lhs, rhs);
        });
    });
    let original = b.finish();
    println!("--- original ---\n{}", program_to_string(&original));

    // The cost model ranks each loop by the cache lines touched if it
    // were innermost (cls = 4 elements, as in the paper's figures).
    let model = CostModel::new(4);
    let nest = original.nests()[0];
    for entry in model.analyze(&original, nest).entries {
        println!(
            "LoopCost({}) = {}",
            original.var_name(entry.var),
            entry.cost
        );
    }

    // Compound = permute / fuse / distribute / reverse, driven by the
    // model (Figure 6 of the paper).
    let mut transformed = original.clone();
    let report = compound(&mut transformed, &model);
    println!("\n--- transformed ---\n{}", program_to_string(&transformed));
    println!(
        "nests permuted: {}, LoopCost improvement: {:.2}x",
        report.nests_permuted, report.loopcost_ratio_final
    );

    // The interpreter proves the rewrite preserved semantics bit-exactly.
    interp::assert_equivalent(&original, &transformed, &[64]);
    println!("\nsemantics verified: original ≡ transformed (N = 64)");
}
