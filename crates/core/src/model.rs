//! The locality cost model: `RefGroup`, `RefCost`, and `LoopCost`
//! (Figure 1 of the paper), plus *memory order*.
//!
//! For every loop `l` of a (possibly imperfect) nest, [`CostModel`]
//! estimates the number of cache lines the nest touches if `l` were moved
//! innermost. References are first partitioned into *reference groups*
//! that share cache lines (group-temporal and group-spatial reuse); one
//! representative per group is charged `1` (loop-invariant),
//! `trip·stride/cls` (consecutive), or `trip` (no reuse) cache lines,
//! scaled by the trip counts of the other loops around it.
//!
//! Sorting loops by descending `LoopCost` yields **memory order** — the
//! permutation with the cheapest loop innermost.

use crate::cost::CostPoly;
use cmt_dependence::{analyze_nest, DepElem, DependenceGraph};
use cmt_ir::affine::Affine;
use cmt_ir::ids::{LoopId, StmtId, VarId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::stmt::ArrayRef;
use cmt_ir::visit::{all_loops, stmts_with_context};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Classification a representative reference receives from `RefCost`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelfReuse {
    /// The candidate loop does not appear in any subscript: one cache
    /// line serves every iteration.
    Invariant,
    /// Unit-ish stride through the first (column-major contiguous)
    /// dimension: `cls/stride` iterations share a line.
    Consecutive,
    /// A new cache line every iteration.
    None,
}

/// One reference occurrence inside a nest: statement plus position in the
/// statement's reference list (0 = the store).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefOcc {
    /// Index of the statement in source order within the analyzed nest.
    pub stmt_idx: usize,
    /// Index into [`cmt_ir::stmt::Stmt::refs`].
    pub ref_idx: usize,
}

/// A reference group with respect to a candidate loop.
#[derive(Clone, Debug)]
pub struct RefGroup {
    /// Members of the group.
    pub members: Vec<RefOcc>,
    /// The chosen representative (deepest nesting).
    pub representative: RefOcc,
    /// True when condition 2 (group-spatial) merged at least one pair.
    pub spatial_merge: bool,
}

/// The cost of one loop of a nest when placed innermost.
#[derive(Clone, Debug)]
pub struct LoopCostEntry {
    /// The candidate loop.
    pub loop_id: LoopId,
    /// Its index variable.
    pub var: VarId,
    /// Cache lines accessed with this loop innermost.
    pub cost: CostPoly,
}

/// The cost model. `cls` is the cache line size in array elements — the
/// only machine parameter this phase of the paper needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    cls: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(4)
    }
}

impl CostModel {
    /// Creates a model for the given cache line size (in elements).
    ///
    /// # Panics
    ///
    /// Panics if `cls == 0`.
    pub fn new(cls: u32) -> Self {
        assert!(cls > 0, "cache line size must be positive");
        CostModel { cls }
    }

    /// The configured cache line size in elements.
    pub fn cls(&self) -> u32 {
        self.cls
    }

    /// Analyzes a nest once; the result answers all cost, statistics and
    /// legality queries about it.
    ///
    /// The result depends only on `(cls, nest)`: `program` is handed to
    /// the dependence tester, which reads nothing from it. A
    /// [`NestMemo`] relies on this to key its entries by the nest alone.
    pub fn analyze(&self, program: &Program, nest: &Loop) -> NestAnalysis {
        NestAnalysis::build(*self, program, nest)
    }
}

/// A pluggable loop-ranking strategy for the permutation driver.
///
/// The permutation passes ([`crate::permute::permute_nest`], `compound`) only need
/// one judgement from the cost model: *in what order should the loops of
/// this nest be nested* (outermost first, best-innermost last)? Abstracting
/// that judgement behind a trait lets alternative models — e.g. the
/// analytical reuse-distance engine in `cmt-analytic` — drive the same
/// legality-checked transformation machinery without `cmt-core` depending
/// on them.
///
/// [`CostModel`] implements this trait with the paper's `LoopCost` ranking,
/// so the default pipeline is unchanged.
pub trait RankOracle {
    /// Desired nesting order for the loops of `root`: most expensive
    /// (should-be-outermost) first, cheapest (should-be-innermost) last.
    ///
    /// Must return exactly the loops of the nest rooted at `root`; ties
    /// keep their original relative order so results are deterministic.
    fn rank(&self, program: &Program, root: &Loop) -> Vec<LoopId>;

    /// Stable oracle name for decision-provenance records.
    fn name(&self) -> &'static str {
        "oracle"
    }

    /// Per-candidate scores backing [`RankOracle::rank`]: for each loop
    /// of the nest, the scalar cost of running it innermost (lower is
    /// better). Used only for decision provenance — the default returns
    /// no scores, which produces records without a cost race.
    fn scores(&self, program: &Program, root: &Loop) -> Vec<(LoopId, f64)> {
        let _ = (program, root);
        Vec::new()
    }

    /// The `LoopCost` model this oracle ranks by, if it is one. The
    /// compound driver then answers [`RankOracle::rank`] and
    /// [`RankOracle::scores`] from its [`NestMemo`] instead.
    fn loop_cost_model(&self) -> Option<CostModel> {
        None
    }
}

/// Uniform evaluation point for scalarizing a symbolic [`CostPoly`] in
/// provenance records and remarks (`LoopCost` at N=100, matching the
/// compound driver's reporting).
pub const SCORE_EVAL_AT: f64 = 100.0;

impl RankOracle for CostModel {
    fn rank(&self, program: &Program, root: &Loop) -> Vec<LoopId> {
        self.analyze(program, root).memory_order()
    }

    fn name(&self) -> &'static str {
        "loopcost"
    }

    fn scores(&self, program: &Program, root: &Loop) -> Vec<(LoopId, f64)> {
        self.analyze(program, root).scores()
    }

    fn loop_cost_model(&self) -> Option<CostModel> {
        Some(*self)
    }
}

/// Everything the compound algorithm asks about one nest, produced by
/// [`CostModel::analyze`]: the dependence graph, the `RefGroup`
/// partition and the `LoopCost` of every loop. The Table-2 statistics
/// are methods on it (see [`crate::report`]).
#[derive(Clone, Debug)]
pub struct NestAnalysis {
    nest: Loop,
    /// Enclosing loop ids of each statement, outermost first, in source
    /// order.
    pub(crate) stacks: Vec<Vec<LoopId>>,
    /// The nest's dependence graph.
    pub graph: DependenceGraph,
    /// Cost per loop, preorder over the nest.
    pub entries: Vec<LoopCostEntry>,
    /// Reference-group partition per loop (parallel to `entries`).
    pub groups: Vec<Vec<RefGroup>>,
}

impl NestAnalysis {
    fn build(model: CostModel, program: &Program, nest: &Loop) -> NestAnalysis {
        let nodes = [Node::Loop(nest.clone())];
        let ctxs = stmts_with_context(&nodes);
        let graph = analyze_nest(program, nest);
        let basis = RefGroupBasis::new(model.cls, &ctxs, &graph);
        let trips: Vec<Vec<CostPoly>> = ctxs.iter().map(|(stack, _)| trip_polys(stack)).collect();
        let loops = all_loops(nest);

        let mut entries = Vec::with_capacity(loops.len());
        let mut groups_per_loop = Vec::with_capacity(loops.len());
        for l in &loops {
            let groups = basis.groups(Some(l.var()));
            let cost = loop_cost(model.cls, &ctxs, &trips, &groups, l);
            entries.push(LoopCostEntry {
                loop_id: l.id(),
                var: l.var(),
                cost,
            });
            groups_per_loop.push(groups);
        }
        let stacks = ctxs
            .iter()
            .map(|(stack, _)| stack.iter().map(|l| l.id()).collect())
            .collect();
        drop(basis);
        drop(ctxs);
        let [Node::Loop(nest)] = nodes else {
            unreachable!("built from one loop")
        };
        NestAnalysis {
            nest,
            stacks,
            graph,
            entries,
            groups: groups_per_loop,
        }
    }

    /// The analyzed nest.
    pub fn nest(&self) -> &Loop {
        &self.nest
    }

    /// The cost entry for a given loop.
    pub fn cost_of(&self, id: LoopId) -> Option<&LoopCostEntry> {
        self.entries.iter().find(|e| e.loop_id == id)
    }

    /// Loops sorted by descending cost (memory order; stable — ties keep
    /// their original relative order), so the last element is the loop
    /// that should be innermost.
    pub fn memory_order(&self) -> Vec<LoopId> {
        let mut es: Vec<&LoopCostEntry> = self.entries.iter().collect();
        es.sort_by(|a, b| b.cost.dominating_cmp(&a.cost));
        es.into_iter().map(|e| e.loop_id).collect()
    }

    /// Each loop's `LoopCost` evaluated at [`SCORE_EVAL_AT`], preorder —
    /// the scores behind [`RankOracle::scores`].
    pub fn scores(&self) -> Vec<(LoopId, f64)> {
        self.entries
            .iter()
            .map(|e| (e.loop_id, e.cost.eval_uniform(SCORE_EVAL_AT)))
            .collect()
    }
}

/// The analyses of one compound run: at most one [`NestAnalysis`] per
/// distinct nest state.
///
/// A key is the whole nest, compared with `==` (loop and statement ids
/// included), never a hash alone. That is exact because
/// [`CostModel::analyze`] depends only on `(cls, nest)`, and the memo
/// holds a single model. Entries are shared as `Rc`s; the memo is a plain
/// value that the run drops when it ends.
///
/// As a [`RankOracle`] it ranks by `LoopCost`, exactly like its
/// [`CostModel`], answering from the memo.
#[derive(Debug)]
pub struct NestMemo {
    model: CostModel,
    analyses: RefCell<Vec<Rc<NestAnalysis>>>,
    #[cfg(test)]
    builds: std::cell::Cell<usize>,
}

impl NestMemo {
    /// An empty memo for `model`.
    pub fn new(model: CostModel) -> Self {
        NestMemo {
            model,
            analyses: RefCell::new(Vec::new()),
            #[cfg(test)]
            builds: std::cell::Cell::new(0),
        }
    }

    /// The model every entry is built with.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// The analysis of `nest`, built on first request.
    pub fn analysis(&self, program: &Program, nest: &Loop) -> Rc<NestAnalysis> {
        if let Some(hit) = self.analyses.borrow().iter().find(|a| a.nest == *nest) {
            return Rc::clone(hit);
        }
        #[cfg(test)]
        self.builds.set(self.builds.get() + 1);
        let built = Rc::new(self.model.analyze(program, nest));
        self.analyses.borrow_mut().push(Rc::clone(&built));
        built
    }

    /// Analyses built so far.
    #[cfg(test)]
    pub(crate) fn builds(&self) -> usize {
        self.builds.get()
    }

    /// The distinct nests analyzed so far.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<Loop> {
        self.analyses
            .borrow()
            .iter()
            .map(|a| a.nest.clone())
            .collect()
    }
}

impl RankOracle for NestMemo {
    fn rank(&self, program: &Program, root: &Loop) -> Vec<LoopId> {
        self.analysis(program, root).memory_order()
    }

    fn name(&self) -> &'static str {
        "loopcost"
    }

    fn scores(&self, program: &Program, root: &Loop) -> Vec<(LoopId, f64)> {
        self.analysis(program, root).scores()
    }

    fn loop_cost_model(&self) -> Option<CostModel> {
        Some(self.model)
    }
}

type Ctx<'a> = (Vec<&'a Loop>, &'a cmt_ir::stmt::Stmt);

/// The candidate-independent part of a nest's `RefGroup` partitions,
/// computed once per nest: the occurrence table, the unions that hold for
/// every candidate loop, the dependences that join two occurrences only
/// for the loop that carries them, and the group-spatial pairs.
/// [`RefGroupBasis::groups`] finishes the partition for one candidate.
#[derive(Debug)]
pub struct RefGroupBasis<'a> {
    ctxs: &'a [Ctx<'a>],
    occs: Vec<RefOcc>,
    /// Textual-identity and loop-independent unions.
    base: UnionFind,
    /// `(a, b, carrier)`: condition 1 joins `a` and `b` when `carrier` is
    /// the candidate loop's variable.
    carried: Vec<(usize, usize, VarId)>,
    /// Condition 2 candidates in scan order.
    spatial_pairs: Vec<(usize, usize)>,
}

impl<'a> RefGroupBasis<'a> {
    /// Precomputes the candidate-independent grouping work for the nest
    /// whose statements are `ctxs` and dependences `graph`.
    pub fn new(cls: u32, ctxs: &'a [Ctx<'a>], graph: &DependenceGraph) -> Self {
        // Occurrence table.
        let mut occs: Vec<RefOcc> = Vec::new();
        let mut occ_index: HashMap<(StmtId, usize), usize> = HashMap::new();
        let mut stmt_pos: HashMap<StmtId, usize> = HashMap::new();
        let mut loop_var: HashMap<LoopId, VarId> = HashMap::new();
        for (si, (stack, s)) in ctxs.iter().enumerate() {
            stmt_pos.insert(s.id(), si);
            for l in stack {
                loop_var.insert(l.id(), l.var());
            }
            for ri in 0..s.refs().len() {
                occ_index.insert((s.id(), ri), occs.len());
                occs.push(RefOcc {
                    stmt_idx: si,
                    ref_idx: ri,
                });
            }
        }

        let mut base = UnionFind::new(occs.len());

        // Textually identical references in one statement touch the same
        // address in every iteration — trivially one group (e.g. the write
        // and read of `C(I,J) = C(I,J) + …`). This also lets the value-based
        // occurrence matching below stay unambiguous.
        for (_, s) in ctxs {
            let refs = s.refs();
            for a in 0..refs.len() {
                for b in (a + 1)..refs.len() {
                    if refs[a] == refs[b] {
                        base.union(occ_index[&(s.id(), a)], occ_index[&(s.id(), b)]);
                    }
                }
            }
        }

        // Condition 1: connected by a qualifying dependence. Following the
        // paper (whose groups are "slightly more restrictive than uniformly
        // generated references"), only uniformly generated pairs — same
        // index-variable coefficients, constant subscript differences — are
        // grouped; A(I,K) and A(K,K) stay apart even though a dependence may
        // connect them. Every union keeps the smaller root, so a
        // component's root is its first occurrence whatever the union
        // order: applying the loop-independent unions here, ahead of the
        // candidate's own, yields the same partition.
        let mut carried = Vec::new();
        for d in graph.deps() {
            if !uniformly_generated(&d.src_ref, &d.dst_ref) {
                continue;
            }
            let (Some(&si), Some(&di)) = (stmt_pos.get(&d.src), stmt_pos.get(&d.dst)) else {
                continue;
            };
            let find_occ = |si: usize, r: &ArrayRef| -> Option<usize> {
                let s = ctxs[si].1;
                s.refs()
                    .iter()
                    .position(|q| *q == r)
                    .and_then(|ri| occ_index.get(&(s.id(), ri)).copied())
            };
            let (Some(a), Some(b)) = (find_occ(si, &d.src_ref), find_occ(di, &d.dst_ref)) else {
                continue;
            };
            if d.vector.is_loop_independent() {
                base.union(a, b);
            } else if let Some(v) = group_carrier(d.vector.elems(), &d.loops, &loop_var) {
                carried.push((a, b, v));
            }
        }

        // Condition 2: group-spatial — same array, first subscripts differ by
        // at most the line size, remaining subscripts identical.
        let mut spatial_pairs = Vec::new();
        for a in 0..occs.len() {
            for b in (a + 1)..occs.len() {
                let ra = ref_of(ctxs, occs[a]);
                let rb = ref_of(ctxs, occs[b]);
                if ra.array() != rb.array() || ra == rb {
                    continue;
                }
                let diff = ra.subscripts()[0].clone() - rb.subscripts()[0].clone();
                if !diff.is_constant() || diff.constant_term().unsigned_abs() > u64::from(cls) {
                    continue;
                }
                if ra.subscripts()[1..] != rb.subscripts()[1..] {
                    continue;
                }
                spatial_pairs.push((a, b));
            }
        }

        RefGroupBasis {
            ctxs,
            occs,
            base,
            carried,
            spatial_pairs,
        }
    }

    /// The `RefGroup` partition of all references in the nest with
    /// respect to candidate loop variable `candidate` (`None` groups only
    /// by loop-independent and spatial conditions — used for statistics).
    pub fn groups(&self, candidate: Option<VarId>) -> Vec<RefGroup> {
        let mut uf = self.base.clone();
        for &(a, b, carrier) in &self.carried {
            if candidate == Some(carrier) {
                uf.union(a, b);
            }
        }
        let mut spatial = vec![false; self.occs.len()];
        for &(a, b) in &self.spatial_pairs {
            if uf.find(a) != uf.find(b) {
                uf.union(a, b);
                spatial[a] = true;
                spatial[b] = true;
            }
        }

        // Materialize groups in root order (a root is its component's
        // first occurrence); representative = deepest nesting (most
        // enclosing loops), ties to the last occurrence.
        let mut group_of: Vec<usize> = vec![usize::MAX; self.occs.len()];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.occs.len() {
            let r = uf.find(i);
            if r == i {
                group_of[i] = members.len();
                members.push(vec![i]);
            } else {
                members[group_of[r]].push(i);
            }
        }
        members
            .into_iter()
            .map(|members_idx| {
                let rep = *members_idx
                    .iter()
                    .max_by_key(|&&i| self.ctxs[self.occs[i].stmt_idx].0.len())
                    .expect("groups are nonempty");
                RefGroup {
                    members: members_idx.iter().map(|&i| self.occs[i]).collect(),
                    representative: self.occs[rep],
                    spatial_merge: members_idx.iter().any(|&i| spatial[i]),
                }
            })
            .collect()
    }
}

/// Condition 1 of `RefGroup` for a loop-carried dependence: the variable
/// of the one candidate loop that may group its endpoints. That is the
/// loop whose entry is a small constant (|d| ≤ 2) while every other entry
/// is zero; `None` when no candidate qualifies. The candidate is located
/// among the dependence's common loops by variable (sibling copies share
/// the variable), first match.
fn group_carrier(
    elems: &[DepElem],
    dep_loops: &[LoopId],
    loop_var: &HashMap<LoopId, VarId>,
) -> Option<VarId> {
    let mut non_eq = elems.iter().enumerate().filter(|(_, e)| !e.is_eq());
    let (pos, elem) = non_eq.next()?;
    if non_eq.next().is_some() || !matches!(elem, DepElem::Dist(d) if d.abs() <= 2) {
        return None;
    }
    let var = *loop_var.get(dep_loops.get(pos)?)?;
    let first = dep_loops
        .iter()
        .position(|id| loop_var.get(id) == Some(&var))?;
    (first == pos).then_some(var)
}

/// True when two references are *uniformly generated*: same array, and
/// every subscript pair differs only by a constant.
pub fn uniformly_generated(a: &ArrayRef, b: &ArrayRef) -> bool {
    a.array() == b.array()
        && a.rank() == b.rank()
        && a.subscripts()
            .iter()
            .zip(b.subscripts())
            .all(|(x, y)| (x.clone() - y.clone()).is_constant())
}

fn ref_of<'a>(ctxs: &'a [Ctx<'a>], occ: RefOcc) -> &'a ArrayRef {
    ctxs[occ.stmt_idx].1.refs()[occ.ref_idx]
}

/// `RefCost`: the cache-line count of one representative with respect to
/// candidate loop `cand` whose trip is `trip`.
pub fn ref_cost(
    cls: u32,
    r: &ArrayRef,
    cand_var: VarId,
    cand_step: i64,
    trip: &CostPoly,
) -> (CostPoly, SelfReuse) {
    let subs = r.subscripts();
    if subs.iter().all(|s| !s.mentions_var(cand_var)) {
        return (CostPoly::one(), SelfReuse::Invariant);
    }
    let stride = (cand_step * subs[0].coeff_of_var(cand_var)).unsigned_abs();
    let rest_invariant = subs[1..].iter().all(|s| !s.mentions_var(cand_var));
    if stride > 0 && stride < u64::from(cls) && rest_invariant {
        let factor = stride as f64 / f64::from(cls);
        return (trip.clone() * factor, SelfReuse::Consecutive);
    }
    (trip.clone(), SelfReuse::None)
}

/// `LoopCost`: total cache lines for the nest with `cand` innermost.
/// `trips[s]` are the [`trip_polys`] of statement `s`'s loop stack.
fn loop_cost(
    cls: u32,
    ctxs: &[Ctx<'_>],
    trips: &[Vec<CostPoly>],
    groups: &[RefGroup],
    cand: &Loop,
) -> CostPoly {
    let mut standalone: Option<CostPoly> = None;
    let mut total = CostPoly::zero();
    for g in groups {
        let rep = g.representative;
        let (stack, stmt) = &ctxs[rep.stmt_idx];
        let r = stmt.refs()[rep.ref_idx];
        let trips = &trips[rep.stmt_idx];
        // Trip of the candidate loop: from the statement's own stack when
        // the candidate encloses it, else resolved from the candidate's
        // header directly.
        let cand_trip = match stack.iter().position(|l| l.var() == cand.var()) {
            Some(k) => &trips[k],
            None => &*standalone.get_or_insert_with(|| trip_poly_standalone(cand)),
        };
        let (rc, _) = ref_cost(cls, r, cand.var(), cand.step(), cand_trip);
        let mut product = rc;
        for (k, l) in stack.iter().enumerate() {
            if l.var() != cand.var() {
                product = product * trips[k].clone();
            }
        }
        total += product;
    }
    total
}

/// Dominating-term trip polynomials for each loop of a stack, resolving
/// triangular bounds: upper-bound variables are substituted by their own
/// loops' dominating extents; lower-bound variable terms are dropped (a
/// triangular `K+1 .. N` loop counts as `n`, exactly as in the paper's
/// tables).
pub fn trip_polys(stack: &[&Loop]) -> Vec<CostPoly> {
    let mut dom: HashMap<VarId, CostPoly> = HashMap::new();
    let mut out = Vec::with_capacity(stack.len());
    for l in stack {
        let t = trip_poly(l, &dom);
        let ub_dom = affine_poly(l.upper(), &dom);
        dom.insert(l.var(), ub_dom);
        out.push(t);
    }
    out
}

/// Trip polynomial for one loop given dominating extents of outer
/// variables (standalone variant used for candidate loops outside the
/// representative's stack).
fn trip_poly_standalone(l: &Loop) -> CostPoly {
    trip_poly(l, &HashMap::new())
}

fn trip_poly(l: &Loop, dom: &HashMap<VarId, CostPoly>) -> CostPoly {
    let (hi, lo) = if l.step() > 0 {
        (l.upper(), l.lower())
    } else {
        (l.lower(), l.upper())
    };
    let hi_poly = affine_poly(hi, dom);
    let lo_poly = affine_poly_dropping_vars(lo);
    let mut t = hi_poly + lo_poly * -1.0 + CostPoly::one();
    let step = l.step().unsigned_abs();
    if step > 1 {
        t = t * (1.0 / step as f64);
    }
    // A nonsensical (symbolically negative) trip degrades to a single
    // iteration rather than poisoning comparisons.
    if t.eval_uniform(1e4) < 1.0 {
        CostPoly::one()
    } else {
        t
    }
}

/// Converts an affine bound to a polynomial, substituting variables by
/// their dominating extents (unknown variables are dropped).
fn affine_poly(e: &Affine, dom: &HashMap<VarId, CostPoly>) -> CostPoly {
    let mut out = CostPoly::constant(e.constant_term() as f64);
    for (p, c) in e.param_terms() {
        out += CostPoly::param(p) * c as f64;
    }
    for (v, c) in e.var_terms() {
        if let Some(d) = dom.get(&v) {
            out += d.clone() * c as f64;
        }
    }
    out
}

/// Converts an affine bound to a polynomial, dropping variable terms
/// entirely (lower bounds of triangular loops).
fn affine_poly_dropping_vars(e: &Affine) -> CostPoly {
    let mut out = CostPoly::constant(e.constant_term() as f64);
    for (p, c) in e.param_terms() {
        out += CostPoly::param(p) * c as f64;
    }
    out
}

/// Minimal union-find.
#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    fn matmul() -> Program {
        let mut b = ProgramBuilder::new("matmul");
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
        b.finish()
    }

    fn n_poly() -> CostPoly {
        CostPoly::param(cmt_ir::ids::ParamId(0))
    }

    #[test]
    fn matmul_ref_groups() {
        let p = matmul();
        let nest = p.nests()[0];
        let model = CostModel::new(4);
        let costs = model.analyze(&p, nest);
        // Three groups for every candidate: {C,C}, {A}, {B}.
        for gs in &costs.groups {
            assert_eq!(gs.len(), 3, "{gs:#?}");
            let sizes: Vec<usize> = gs.iter().map(|g| g.members.len()).collect();
            assert!(sizes.contains(&2), "C(I,J) pair should group: {sizes:?}");
        }
    }

    #[test]
    fn matmul_loop_costs_match_paper() {
        // Figure 2 with cls = 4:
        //   LoopCost(I) = ¼n·n² (C) + ¼n·n² (A) + 1·n² (B) = ½n³ + n²
        //   LoopCost(K) = 1·n² (C) + n·n² (A… A(I,K) has K in f2 → n)
        //     wait—A(I,K): K appears in subscript 2 only → no reuse → n³;
        //     B(K,J): consecutive ¼n³; C invariant n² → 5/4n³ + n².
        //   LoopCost(J) = C: n³; A: invariant n²; B: n³ → 2n³ + n².
        let p = matmul();
        let nest = p.nests()[0];
        let model = CostModel::new(4);
        let costs = model.analyze(&p, nest);
        let n = n_poly();
        let n2 = n.clone() * n.clone();
        let n3 = n2.clone() * n.clone();

        let by_var = |name: &str| -> &CostPoly {
            let v = p.find_var(name).unwrap();
            &costs.entries.iter().find(|e| e.var == v).unwrap().cost
        };
        assert_eq!(*by_var("I"), n3.clone() * 0.5 + n2.clone());
        assert_eq!(*by_var("K"), n3.clone() * 1.25 + n2.clone());
        assert_eq!(*by_var("J"), n3.clone() * 2.0 + n2.clone());
    }

    #[test]
    fn matmul_memory_order_is_jki() {
        let p = matmul();
        let nest = p.nests()[0];
        let model = CostModel::new(4);
        let order = model.analyze(&p, nest).memory_order();
        let names: Vec<&str> = order
            .iter()
            .map(|id| {
                let l = all_loops(nest).into_iter().find(|l| l.id() == *id).unwrap();
                p.var_name(l.var())
            })
            .collect();
        assert_eq!(names, vec!["J", "K", "I"]);
    }

    #[test]
    fn cholesky_costs_match_paper() {
        // Figure 7 LoopCost table (cls = 4): candidates K, J, I over the
        // imperfect KIJ nest. Groups: {A(K,K)×2}, {A(I,K)×3}, {A(I,J)×2},
        // {A(J,K)}. Representatives at deepest nesting.
        let mut b = ProgramBuilder::new("cholesky");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("K", 1, n, |b| {
            let k = b.var("K");
            let akk = b.at(a, [k, k]);
            let rhs = Expr::sqrt(Expr::load(b.at(a, [k, k])));
            b.assign(akk, rhs);
            b.loop_("I", Affine::var(k) + 1, n, |b| {
                let i = b.var("I");
                let lhs = b.at(a, [i, k]);
                let rhs = Expr::load(b.at(a, [i, k])) / Expr::load(b.at(a, [k, k]));
                b.assign(lhs, rhs);
                b.loop_("J", Affine::var(k) + 1, i, |b| {
                    let j = b.var("J");
                    let lhs = b.at(a, [i, j]);
                    let rhs = Expr::load(b.at(a, [i, j]))
                        - Expr::load(b.at(a, [i, k])) * Expr::load(b.at(a, [j, k]));
                    b.assign(lhs, rhs);
                });
            });
        });
        let p = b.finish();
        let nest = p.nests()[0];
        let model = CostModel::new(4);
        let costs = model.analyze(&p, nest);
        let by_var = |name: &str| -> &CostPoly {
            let v = p.find_var(name).unwrap();
            &costs.entries.iter().find(|e| e.var == v).unwrap().cost
        };
        // Summing the paper's per-reference rows (A(K,K): n·n;
        // A(I,K): n·n²; A(I,J): 1·n²; A(J,K): n·n² for the K column, and
        // correspondingly for J and I): K = 2n³, J = 5/4n³, I = ½n³ —
        // the same KJI ranking the paper reports.
        let n3 = n_poly() * n_poly() * n_poly();
        let close = |poly: &CostPoly, coeff: f64| {
            let got = poly.eval_uniform(1000.0);
            let want = (n3.clone() * coeff).eval_uniform(1000.0);
            (got - want).abs() / want < 0.05
        };
        assert!(close(by_var("K"), 2.0), "K = {}", by_var("K"));
        assert!(close(by_var("J"), 1.25), "J = {}", by_var("J"));
        assert!(close(by_var("I"), 0.5), "I = {}", by_var("I"));
        // Memory order = K, J, I (highest cost outermost).
        let order = costs.memory_order();
        let names: Vec<&str> = order
            .iter()
            .map(|id| {
                let l = all_loops(nest).into_iter().find(|l| l.id() == *id).unwrap();
                p.var_name(l.var())
            })
            .collect();
        assert_eq!(names, vec!["K", "J", "I"]);
    }

    #[test]
    fn group_spatial_condition_merges_adjacent_columns() {
        // A(I,J) and A(I+1,J) share lines (cls=4) → one group.
        let mut b = ProgramBuilder::new("sp");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("J", 1, n, |b| {
            b.loop_("I", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::load(b.at(a, [i, j]))
                    + Expr::load(b.at_vec(a, vec![Affine::var(i) + 1, Affine::var(j)]));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let nest = p.nests()[0];
        let model = CostModel::new(4);
        let costs = model.analyze(&p, nest);
        let gs = &costs.groups[0];
        // Groups: {C}, {A(I,J), A(I+1,J)}.
        assert_eq!(gs.len(), 2, "{gs:#?}");
        assert!(gs.iter().any(|g| g.spatial_merge && g.members.len() == 2));
    }

    #[test]
    fn far_apart_columns_do_not_merge() {
        let mut b = ProgramBuilder::new("nosp");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(c, [i, i]);
            let rhs = Expr::load(b.at(a, [i, i]))
                + Expr::load(b.at_vec(a, vec![Affine::var(i) + 100, Affine::var(i)]));
            b.assign(lhs, rhs);
        });
        let p = b.finish();
        let nest = p.nests()[0];
        let costs = CostModel::new(4).analyze(&p, nest);
        assert_eq!(costs.groups[0].len(), 3, "{:#?}", costs.groups[0]);
    }

    #[test]
    fn ref_cost_classifications() {
        let p = matmul();
        let i = p.find_var("I").unwrap();
        let trip = n_poly();
        let c = p.find_array("C").unwrap();
        let j = p.find_var("J").unwrap();
        // C(I,J) wrt I: consecutive (stride 1 < 4).
        let r = ArrayRef::new(c, vec![Affine::var(i), Affine::var(j)]);
        let (cost, kind) = ref_cost(4, &r, i, 1, &trip);
        assert_eq!(kind, SelfReuse::Consecutive);
        assert_eq!(cost, trip.clone() * 0.25);
        // C(I,J) wrt J: none.
        let (cost, kind) = ref_cost(4, &r, j, 1, &trip);
        assert_eq!(kind, SelfReuse::None);
        assert_eq!(cost, trip.clone());
        // C(I,J) wrt K: invariant.
        let k = p.find_var("K").unwrap();
        let (cost, kind) = ref_cost(4, &r, k, 1, &trip);
        assert_eq!(kind, SelfReuse::Invariant);
        assert_eq!(cost, CostPoly::one());
        // Stride 2: cls/stride = 2 iterations per line.
        let r2 = ArrayRef::new(c, vec![Affine::var(i) * 2, Affine::var(j)]);
        let (cost, kind) = ref_cost(4, &r2, i, 1, &trip);
        assert_eq!(kind, SelfReuse::Consecutive);
        assert_eq!(cost, trip.clone() * 0.5);
        // Stride ≥ cls: no reuse.
        let r3 = ArrayRef::new(c, vec![Affine::var(i) * 4, Affine::var(j)]);
        let (_, kind) = ref_cost(4, &r3, i, 1, &trip);
        assert_eq!(kind, SelfReuse::None);
    }

    #[test]
    fn trip_polys_triangular() {
        // DO I = 1, N; DO J = I+1, N: both trips are n (dominating term).
        let mut b = ProgramBuilder::new("tri");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", Affine::var(i) + 1, n, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let p = b.finish();
        let outer = p.nests()[0];
        let inner = outer.only_loop_child().unwrap();
        let trips = trip_polys(&[outer, inner]);
        // I: 1..N → n. J: I+1..N → n (lower-bound var terms dropped,
        // constant +1 kept: N − 1 + 1).
        assert_eq!(trips[0], n_poly());
        assert_eq!(trips[1], n_poly());
    }
}
