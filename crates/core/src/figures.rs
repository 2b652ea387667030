//! Rendering of the paper's per-reference `LoopCost` tables.
//!
//! Figures 2, 3 and 7 present the cost model as a table: one row per
//! reference group, one column per candidate innermost loop, a totals
//! row at the bottom. [`cost_table`] reproduces that presentation for any
//! nest — invaluable when eyeballing why memory order chose what it
//! chose.
//!
//! ```text
//! RefGroup    J              K              I
//! ---------------------------------------------------
//! C(I,J)      p0^2·p0        p0^2           0.25·p0^2·p0
//! A(I,K)      p0^2           p0^2·p0        0.25·p0^2·p0
//! B(K,J)      p0^2·p0        0.25·p0^2·p0   p0^2
//! total       2·p0^3 + p0^2  1.25·p0^3 + …  0.5·p0^3 + …
//! ```

use crate::model::CostModel;
use crate::CostPoly;
use cmt_ir::node::{Loop, Node};
use cmt_ir::pretty::ref_str;
use cmt_ir::program::Program;
use cmt_ir::visit::{all_loops, stmts_with_context};
use std::fmt::Write as _;

/// Renders the per-group cost table of a nest, paper style.
pub fn cost_table(program: &Program, nest: &Loop, model: &CostModel) -> String {
    let costs = model.analyze(program, nest);
    let loops = all_loops(nest);
    let nodes = [Node::Loop(nest.clone())];
    let ctxs = stmts_with_context(&nodes);

    // Columns: one per candidate loop (preorder). Rows: the groups of the
    // *first* candidate (group membership is near-identical across
    // candidates; representatives are what matter).
    let mut header: Vec<String> = vec!["RefGroup".to_string()];
    for l in &loops {
        header.push(program.var_name(l.var()).to_string());
    }

    // Row labels from the first candidate's groups.
    let first_groups = &costs.groups[0];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for g in first_groups {
        let rep = g.representative;
        let (stack, stmt) = &ctxs[rep.stmt_idx];
        let label = ref_str(program, stmt.refs()[rep.ref_idx]);
        let mut row = vec![label];
        for (li, l) in loops.iter().enumerate() {
            // Find this group's representative cost under candidate li:
            // recompute the per-group contribution.
            let trips = crate::model::trip_polys(stack);
            let cand_trip = stack
                .iter()
                .position(|x| x.var() == l.var())
                .map(|k| trips[k].clone())
                .unwrap_or_else(CostPoly::one);
            let (rc, _) = crate::model::ref_cost(
                model.cls(),
                stmt.refs()[rep.ref_idx],
                l.var(),
                l.step(),
                &cand_trip,
            );
            let mut product = rc;
            for (k, h) in stack.iter().enumerate() {
                if h.var() != l.var() {
                    product = product * trips[k].clone();
                }
            }
            row.push(product.to_string());
            let _ = li;
        }
        rows.push(row);
    }
    // Totals row: the real LoopCost (computed over per-candidate groups).
    let mut total = vec!["total".to_string()];
    for l in &loops {
        let c = costs.cost_of(l.id()).expect("loop analyzed");
        total.push(c.cost.to_string());
    }
    rows.push(total);

    // Render.
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in &rows {
        for (k, cell) in r.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit = |cells: &[String], out: &mut String| {
        for (k, c) in cells.iter().enumerate() {
            if k > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{c:<w$}", w = widths[k]);
        }
        out.push('\n');
    };
    emit(&header, &mut out);
    let total_w: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total_w));
    out.push('\n');
    for r in &rows {
        emit(r, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    #[test]
    fn matmul_table_matches_figure_2() {
        let mut b = ProgramBuilder::new("mm");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let bb = b.matrix("B", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                b.loop_("K", 1, n, |b| {
                    let (i, j, k) = (b.var("I"), b.var("J"), b.var("K"));
                    let lhs = b.at(c, [i, j]);
                    let rhs = Expr::load(b.at(c, [i, j]))
                        + Expr::load(b.at(a, [i, k])) * Expr::load(b.at(bb, [k, j]));
                    b.assign(lhs, rhs);
                });
            });
        });
        let p = b.finish();
        let table = cost_table(&p, p.nests()[0], &CostModel::new(4));
        // Header and the three reference-group rows.
        assert!(table.contains("RefGroup"), "{table}");
        assert!(table.contains("C(I,J)"), "{table}");
        assert!(table.contains("A(I,K)"), "{table}");
        assert!(table.contains("B(K,J)"), "{table}");
        // Totals line carries the Figure-2 polynomials.
        let totals = table.lines().last().unwrap();
        assert!(totals.contains("2·p0^3"), "{table}");
        assert!(totals.contains("1.25·p0^3"), "{table}");
        assert!(totals.contains("0.5·p0^3"), "{table}");
    }

    #[test]
    fn imperfect_nest_table_renders() {
        // Cholesky-style imperfect nest renders without panicking and
        // contains per-depth rows.
        let mut b = ProgramBuilder::new("im");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("K", 1, n, |b| {
            let k = b.var("K");
            let lhs = b.at(a, [k, k]);
            let rhs = Expr::sqrt(Expr::load(b.at(a, [k, k])));
            b.assign(lhs, rhs);
            b.loop_("I", cmt_ir::affine::Affine::var(k) + 1, n, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, k]);
                let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let table = cost_table(&p, p.nests()[0], &CostModel::new(4));
        assert!(table.contains("A(I,K)"), "{table}");
        assert!(table.lines().count() >= 4, "{table}");
    }
}
