//! Exact paper-figure expectations: the cost-model tables of Figures 2, 3
//! and 7 encoded as assertions, and the experiment rankings at small
//! simulation sizes.

use cmt_ir::ids::ParamId;
use cmt_locality_repro::locality::model::CostModel;
use cmt_locality_repro::locality::CostPoly;
use cmt_locality_repro::suite::kernels;

fn n() -> CostPoly {
    CostPoly::param(ParamId(0))
}

/// Figure 2's LoopCost column (cls = 4): I = ½n³+n², K = 5/4n³+n²,
/// J = 2n³+n².
#[test]
fn fig2_matmul_loopcosts() {
    let p = kernels::matmul("IJK");
    let model = CostModel::new(4);
    let costs = model.analyze(&p, p.nests()[0]);
    let n3 = n() * n() * n();
    let n2 = n() * n();
    let by = |name: &str| {
        let v = p.find_var(name).unwrap();
        costs
            .entries
            .iter()
            .find(|e| e.var == v)
            .unwrap()
            .cost
            .clone()
    };
    assert_eq!(by("I"), n3.clone() * 0.5 + n2.clone());
    assert_eq!(by("K"), n3.clone() * 1.25 + n2.clone());
    assert_eq!(by("J"), n3 * 2.0 + n2);
}

/// Figure 3: fusing the K loops lowers LoopCost(K) from 5n² to 3n², and
/// LoopCost(I) from 5/4n² to ¾n² (dominant terms).
#[test]
fn fig3_adi_fusion_costs() {
    let model = CostModel::new(4);
    let scalarized = kernels::adi_scalarized();
    let fused = kernels::adi_fused_interchanged();

    let dominant = |prog: &cmt_locality_repro::ir::Program, var: &str| -> f64 {
        let v = prog.find_var(var).unwrap();
        let costs = model.analyze(prog, prog.nests()[0]);
        let c = &costs.entries.iter().find(|e| e.var == v).unwrap().cost;
        // Coefficient of the n² term ≈ cost(n)/n² for large n.
        c.eval_uniform(1e4) / 1e8
    };
    // LoopCost(K) already covers the whole nest (both statements); the
    // twin K2 loop reports the same total.
    let k_unfused = dominant(&scalarized, "K");
    let k2_unfused = dominant(&scalarized, "K2");
    assert!((k_unfused - k2_unfused).abs() < 0.01);
    let k_fused = dominant(&fused, "K");
    assert!(
        (k_unfused - 5.0).abs() < 0.01,
        "unfused K = {k_unfused} (paper 5n²)"
    );
    assert!(
        (k_fused - 3.0).abs() < 0.01,
        "fused K = {k_fused} (paper 3n²)"
    );
    let i_unfused = dominant(&scalarized, "I");
    let i_fused = dominant(&fused, "I");
    assert!(
        (i_unfused - 1.25).abs() < 0.01,
        "unfused I = {i_unfused} (paper 5/4n²)"
    );
    assert!(
        (i_fused - 0.75).abs() < 0.01,
        "fused I = {i_fused} (paper 3/4n²)"
    );
}

/// Figure 7: Cholesky memory order is KJI.
#[test]
fn fig7_cholesky_memory_order() {
    let p = kernels::cholesky_kij();
    let model = CostModel::new(4);
    let nest = p.nests()[0];
    let order = model.analyze(&p, nest).memory_order();
    let names: Vec<&str> = order
        .iter()
        .map(|id| {
            let l = cmt_locality_repro::ir::visit::all_loops(nest)
                .into_iter()
                .find(|l| l.id() == *id)
                .unwrap();
            p.var_name(l.var())
        })
        .collect();
    assert_eq!(names, vec!["K", "J", "I"]);
}

/// Figure 2's experiment: the model ranking and the simulated ranking
/// agree, with JKI fastest.
#[test]
fn fig2_ranking_agrees_with_simulation() {
    let (_, rows) = cmt_bench::tables::fig2_matmul(128);
    let mut by_cost: Vec<&str> = {
        let mut v: Vec<_> = rows.iter().collect();
        v.sort_by(|a, b| a.cost_value.partial_cmp(&b.cost_value).unwrap());
        v.iter().map(|r| r.name.as_str()).collect()
    };
    let by_cycles: Vec<&str> = {
        let mut v: Vec<_> = rows.iter().collect();
        v.sort_by_key(|r| r.cycles);
        v.iter().map(|r| r.name.as_str()).collect()
    };
    assert_eq!(by_cycles[0], "JKI", "paper: JKI wins");
    // The model groups {JKI,KJI} < {JIK,IJK} < {KIJ,IKJ}; the simulation
    // must respect the group ordering.
    let group = |o: &str| match o {
        "JKI" | "KJI" => 0,
        "JIK" | "IJK" => 1,
        _ => 2,
    };
    let cost_groups: Vec<usize> = by_cost.drain(..).map(group).collect();
    let cycle_groups: Vec<usize> = by_cycles.iter().map(|o| group(o)).collect();
    assert_eq!(cost_groups, vec![0, 0, 1, 1, 2, 2]);
    assert_eq!(cycle_groups, vec![0, 0, 1, 1, 2, 2]);
}

/// Figure 3's experiment: fusion + interchange beats the scalarized form.
#[test]
fn fig3_fused_wins() {
    let (_, rows) = cmt_bench::tables::fig3_adi(96);
    assert!(rows[1].cycles < rows[0].cycles, "{rows:#?}");
    assert!(rows[1].c1_hit >= rows[0].c1_hit);
}

/// Figure 7's experiment: the KJI (memory order) variant wins.
#[test]
fn fig7_kji_wins() {
    let (_, rows) = cmt_bench::tables::fig7_cholesky(96);
    let best = rows.iter().min_by_key(|r| r.cycles).unwrap();
    assert_eq!(best.name, "KJI");
}

/// Table 1's experiment: the fused Erlebacher beats the distributed one
/// (paper: up to 17% on the cycle-dominant machine).
#[test]
fn table1_fusion_improves() {
    let (_, rows) = cmt_bench::tables::table1_erlebacher(24, 4);
    let hand = &rows[0];
    let distributed = &rows[1];
    let fused = &rows[2];
    assert!(
        fused.cycles <= distributed.cycles,
        "fused {} vs distributed {}",
        fused.cycles,
        distributed.cycles
    );
    assert!(fused.cycles <= hand.cycles);
}
