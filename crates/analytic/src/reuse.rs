//! Symbolic reuse analysis: per-RefGroup reuse-distance histograms
//! computed from the loop-nest IR alone — no trace, no simulation.
//!
//! The machinery is the paper's §3 reuse framework made quantitative.
//! For the representative reference of each [`RefGroup`], every loop
//! level is classified exactly as `RefCost` does (loop-invariant /
//! consecutive / no reuse), but instead of a single cache-line count the
//! classification drives a *new-lines decomposition*: walking the
//! nest innermost → outermost, each level either multiplies the lines a
//! deeper iteration block touches (no reuse), keeps them (invariant:
//! the block's lines are re-touched on every iteration), or scales them
//! by `stride/cls` (consecutive: a line survives `cls/stride`
//! iterations). Every re-touch is a *reuse* whose LRU stack distance is
//! the number of distinct lines the intervening iterations touch — the
//! summed one-iteration footprints of every group under the carrying
//! loop. The result is a reuse-distance histogram per group
//! ([`ReuseHistogram`]); folding a cache geometry over it
//! ([`crate::MissModel`]) yields predicted miss counts for any
//! (size, associativity, line) in one pass.
//!
//! Iteration counts are evaluated **exactly** at a concrete parameter
//! binding: outer levels with dependent (triangular) bounds are
//! enumerated numerically (with a work budget) and the innermost trip
//! is closed-form, so `blocks × avg-trip` products are exact for
//! rectangular *and* triangular nests. Past the budget the analysis
//! falls back to binding outer variables at their midpoints and flags
//! the nest [`NestReuse::exact`]` = false`.

use crate::histogram::{CrossStream, ForeignStream, ReuseHistogram, StreamBin, StreamLevel};
use cmt_dependence::analyze_nest;
use cmt_ir::affine::Env;
use cmt_ir::ids::{ArrayId, LoopId, VarId};
use cmt_ir::node::{Loop, Node};
use cmt_ir::program::Program;
use cmt_ir::stmt::{ArrayRef, Stmt};
use cmt_ir::visit::{all_loops, nest_label, stmts_with_context};
use cmt_locality::model::{RefGroup, RefGroupBasis, RefOcc};
use std::collections::HashMap;

/// Iteration budget for exact enumeration of variable-dependent loop
/// bounds; nests that would enumerate more outer iterations than this
/// fall back to midpoint-approximated trip counts.
const ENUM_BUDGET: i64 = 1 << 22;

/// Self-reuse classification of one reference at one loop level — the
/// paper's `RefCost` trichotomy, with the stride kept for quantitative
/// use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelReuse {
    /// The loop variable appears in no subscript: one line serves every
    /// iteration of this level.
    Invariant,
    /// Only the first (column-major contiguous) subscript moves, by
    /// `stride` elements per iteration with `stride <` line size:
    /// `cls/stride` consecutive iterations share a line.
    Consecutive {
        /// Elements advanced per iteration of this loop.
        stride: u64,
    },
    /// Every iteration of this level touches a fresh line.
    NoReuse,
}

/// One reference group's predicted access behaviour inside a nest.
#[derive(Clone, Debug)]
pub struct GroupReuse {
    /// Name of the array the group references.
    pub array: String,
    /// Total accesses the group issues (representative plus members).
    pub accesses: f64,
    /// Predicted reuse-distance histogram (distances in cache lines).
    pub histogram: ReuseHistogram,
}

/// Reuse analysis of one top-level body node at a concrete parameter
/// binding, produced by [`nest_reuse`].
#[derive(Clone, Debug)]
pub struct NestReuse {
    /// `program/nestN:…` label, same scheme as the profiler's.
    pub label: String,
    /// Cache line size in elements the histograms were computed for
    /// (spatial reuse depends on it; capacity/associativity do not).
    pub cls: u32,
    /// Total predicted accesses of the nest.
    pub accesses: f64,
    /// Whether iteration counts were enumerated exactly (`false` once
    /// the enumeration budget forced midpoint approximation).
    pub exact: bool,
    /// Per-reference-group predictions.
    pub groups: Vec<GroupReuse>,
    /// Same-array group pairs whose interleaved walks can collide in
    /// cache sets on a direct-mapped geometry (see
    /// [`CrossStream::extra_misses`]) — a nest-level correction no
    /// per-group histogram can express.
    pub cross: Vec<CrossStream>,
}

impl NestReuse {
    /// Predicted misses of the whole nest in a fully-associative LRU
    /// cache of `capacity_lines` lines.
    pub fn misses_at(&self, capacity_lines: f64) -> f64 {
        self.groups
            .iter()
            .map(|g| g.histogram.misses_at(capacity_lines))
            .sum()
    }
}

/// Analyzes top-level body node `idx` of `program` with parameter `n`
/// bound, for a line size of `cls` elements.
///
/// Loop-free statements, zero-trip and single-iteration nests all
/// produce histograms with no reuse bins (nothing is ever re-touched at
/// a distance) rather than failing.
///
/// # Panics
///
/// Panics if `idx` is out of bounds.
pub fn nest_reuse(program: &Program, idx: usize, n: i64, cls: u32) -> NestReuse {
    let label = nest_label(program, idx);
    match &program.body()[idx] {
        Node::Stmt(s) => stmt_reuse(program, label, s, cls),
        Node::Loop(root) => loop_reuse(program, root, label, n, cls),
    }
}

/// Predicted misses per candidate-innermost loop: for every loop `l` of
/// `root`, the nest's total misses if `l` were rotated innermost
/// (remaining loops keep their relative order), in a fully-associative
/// LRU cache of `capacity_lines` lines. This is the analytic upgrade of
/// the paper's `LoopCost` column; `cmt_analytic::AnalyticCost` sorts it
/// into a memory order.
///
/// Trip counts here are per-loop averages taken from the original
/// iteration space (order-independent scalars), so candidate rotations
/// of triangular nests stay well-defined.
pub fn candidate_misses(
    program: &Program,
    root: &Loop,
    n: i64,
    cls: u32,
    capacity_lines: f64,
) -> Vec<(LoopId, f64)> {
    let nodes = [Node::Loop(root.clone())];
    let ctxs = stmts_with_context(&nodes);
    let loops = all_loops(root);
    if ctxs.is_empty() {
        return loops.iter().map(|l| (l.id(), 0.0)).collect();
    }
    let graph = analyze_nest(program, root);
    let env = program.param_env(&[n]);

    // Per-loop average trip counts from the original order: a loop's
    // enclosing chain is unique, so iters(l)/blocks(l) is well-defined.
    let mut cache: HashMap<Vec<LoopId>, (Vec<f64>, bool)> = HashMap::new();
    let mut trip_of: HashMap<LoopId, f64> = HashMap::new();
    for (stack, _) in &ctxs {
        let (counts, _) = counts_for(&mut cache, stack, &env).clone();
        for (i, l) in stack.iter().enumerate() {
            let blocks = if i == 0 { 1.0 } else { counts[i - 1] };
            let t = if blocks > 0.0 {
                counts[i] / blocks
            } else {
                0.0
            };
            trip_of.entry(l.id()).or_insert(t);
        }
    }

    let groups = merged_ref_groups(cls, &ctxs, &graph);
    let mut out = Vec::with_capacity(loops.len());
    for cand in &loops {
        let reps: Vec<RepLevels> = groups
            .iter()
            .map(|g| {
                let (stack, stmt) = &ctxs[g.representative.stmt_idx];
                let r = stmt.refs()[g.representative.ref_idx];
                // Candidate rotated innermost; others keep their order.
                let mut order: Vec<&Loop> = stack
                    .iter()
                    .copied()
                    .filter(|l| l.id() != cand.id())
                    .collect();
                if stack.iter().any(|l| l.id() == cand.id()) {
                    order.push(cand);
                }
                let mut blocks = 1.0f64;
                let levels: Vec<Lv> = order
                    .iter()
                    .map(|l| {
                        let t = trip_of.get(&l.id()).copied().unwrap_or(1.0);
                        let lv = Lv::build(program, &env, l, t, blocks, r, cls);
                        blocks *= t;
                        lv
                    })
                    .collect();
                let rep_acc = blocks;
                let member_acc = |stmt_idx: usize| -> f64 {
                    ctxs[stmt_idx]
                        .0
                        .iter()
                        .map(|l| trip_of.get(&l.id()).copied().unwrap_or(1.0))
                        .product()
                };
                build_rep(program, &ctxs, g, r, levels, rep_acc, member_acc, cls, &env)
            })
            .collect();
        let (v, at) = distances(&reps);
        let misses: f64 = reps
            .iter()
            .enumerate()
            .map(|(gi, rp)| chain_histogram(rp, gi, &v, &at).misses_at(capacity_lines))
            .sum();
        out.push((cand.id(), misses));
    }
    out
}

/// Reference groups merged across *every* candidate loop of the nest.
///
/// `RefGroupBasis::groups` follows the paper and only admits
/// group-temporal reuse carried by the one candidate innermost loop. The reuse engine models
/// reuse at every level, so it unions the partitions obtained with each
/// loop variable as the candidate: `A(J,I)` and `A(J,I-1)` end up in one
/// group whichever loop carries the distance-1 dependence. The merged
/// representative is the deepest-nested member (ties: first in source
/// order), matching `RefGroupBasis::groups`' own choice.
fn merged_ref_groups(
    cls: u32,
    ctxs: &[(Vec<&Loop>, &Stmt)],
    graph: &cmt_dependence::DependenceGraph,
) -> Vec<RefGroup> {
    let mut vars: Vec<VarId> = Vec::new();
    for (stack, _) in ctxs {
        for l in stack {
            if !vars.contains(&l.var()) {
                vars.push(l.var());
            }
        }
    }

    // Union-find over reference occurrences.
    let mut occs: Vec<RefOcc> = Vec::new();
    for (si, (_, s)) in ctxs.iter().enumerate() {
        for ri in 0..s.refs().len() {
            occs.push(RefOcc {
                stmt_idx: si,
                ref_idx: ri,
            });
        }
    }
    let index: HashMap<RefOcc, usize> = occs.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut parent: Vec<usize> = (0..occs.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut spatial: Vec<bool> = vec![false; occs.len()];

    let candidates: Vec<Option<VarId>> = if vars.is_empty() {
        vec![None]
    } else {
        vars.into_iter().map(Some).collect()
    };
    let basis = RefGroupBasis::new(cls, ctxs, graph);
    for cand in candidates {
        for g in basis.groups(cand) {
            let Some(&first) = g.members.first().and_then(|m| index.get(m)) else {
                continue;
            };
            for m in &g.members[1..] {
                if let Some(&mi) = index.get(m) {
                    let a = find(&mut parent, first);
                    let b = find(&mut parent, mi);
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
            }
            if g.spatial_merge {
                spatial[first] = true;
            }
        }
    }

    // Components in first-occurrence order.
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<RefGroup> = Vec::new();
    let mut comp_spatial: Vec<bool> = Vec::new();
    for i in 0..occs.len() {
        let r = find(&mut parent, i);
        let ci = *comp_of_root.entry(r).or_insert_with(|| {
            groups.push(RefGroup {
                members: Vec::new(),
                representative: occs[r],
                spatial_merge: false,
            });
            comp_spatial.push(false);
            groups.len() - 1
        });
        groups[ci].members.push(occs[i]);
        comp_spatial[ci] |= spatial[i];
    }
    for (g, sp) in groups.iter_mut().zip(comp_spatial) {
        g.spatial_merge = sp;
        g.representative = g
            .members
            .iter()
            .copied()
            .max_by_key(|m| (ctxs[m.stmt_idx].0.len(), std::cmp::Reverse(*m)))
            .expect("non-empty group");
    }
    groups
}

/// Per-level state of a representative reference.
#[derive(Clone, Debug)]
struct Lv {
    loop_id: LoopId,
    var: VarId,
    step: i64,
    /// Average trip count of this level.
    trip: f64,
    /// Executions of this level's header (iterations of enclosing levels).
    blocks: f64,
    kind: LevelReuse,
    /// Fraction of iterations that open a new line (0 invariant,
    /// stride/cls consecutive, 1 no-reuse).
    rho: f64,
    /// Lines one full execution of this level touches, per line the
    /// deeper levels touch.
    factor: f64,
    /// Address-space spacing (in lines) of consecutive fresh lines this
    /// level opens — the set-mapping structure the geometry fold uses
    /// for the self-interference correction.
    line_stride: u64,
    /// Exact linearized element stride per iteration (0 when the level
    /// carries no fresh-line walk or the extents are unevaluable) — the
    /// cross-group lattice correction needs element, not line,
    /// resolution.
    elem_stride: i64,
}

impl Lv {
    fn build(
        program: &Program,
        env: &Env,
        l: &Loop,
        trip: f64,
        blocks: f64,
        r: &ArrayRef,
        cls: u32,
    ) -> Lv {
        let kind = classify(r, l.var(), l.step(), cls);
        let (rho, factor) = match kind {
            LevelReuse::Invariant => (0.0, 1.0),
            LevelReuse::Consecutive { stride } => {
                let rho = (stride as f64 / f64::from(cls)).min(1.0);
                (rho, (trip * rho).max(1.0))
            }
            LevelReuse::NoReuse => (1.0, trip.max(1.0)),
        };
        let elem_stride = match kind {
            LevelReuse::NoReuse => elem_stride_of(program, r, l.var(), l.step(), env),
            _ => 0,
        };
        let line_stride = match kind {
            LevelReuse::NoReuse => {
                let elems = elem_stride.unsigned_abs();
                let cls = u64::from(cls.max(1));
                if elems > 0 && elems % cls == 0 {
                    (elems / cls).max(1)
                } else {
                    1
                }
            }
            _ => 1,
        };
        Lv {
            loop_id: l.id(),
            var: l.var(),
            step: l.step(),
            trip,
            blocks,
            kind,
            rho,
            factor,
            line_stride,
            elem_stride,
        }
    }
}

/// Linearized (column-major) subscript stride of `r` per iteration of
/// variable `v`, in elements (signed). Returns 0 for unevaluable
/// extents. The line stride derived from it feeds set aliasing, which
/// needs *exact* strides: when the line size does not divide the
/// element stride, consecutive lines drift in phase and the stream
/// spreads across sets (line stride 1, conflict-free).
fn elem_stride_of(program: &Program, r: &ArrayRef, v: VarId, step: i64, env: &Env) -> i64 {
    let dims = program.array(r.array()).dims();
    let mut mult = 1i64;
    let mut total = 0i64;
    for (d, s) in r.subscripts().iter().enumerate() {
        total = total.saturating_add(s.coeff_of_var(v).saturating_mul(mult));
        let Some(ext) = dims.get(d).and_then(|e| e.eval(env).ok()) else {
            return 0;
        };
        mult = mult.saturating_mul(ext.max(1));
    }
    total.saturating_mul(step)
}

/// A non-representative group member: its accesses, and — when its
/// subscripts are the representative's shifted by Δ iterations of some
/// level — that level and |Δ| (the reuse it carries).
#[derive(Clone, Debug)]
struct MemberInfo {
    acc: f64,
    delta_level: Option<(LoopId, f64)>,
    rep_kind_at: LevelReuse,
}

/// Everything [`chain_histogram`] needs about one group.
#[derive(Clone, Debug)]
struct RepLevels {
    array: String,
    array_lines: f64,
    rep_acc: f64,
    levels: Vec<Lv>,
    members: Vec<MemberInfo>,
}

/// `RefCost`'s classification of `r` against loop variable `v`.
fn classify(r: &ArrayRef, v: VarId, step: i64, cls: u32) -> LevelReuse {
    let subs = r.subscripts();
    if subs.iter().all(|s| !s.mentions_var(v)) {
        return LevelReuse::Invariant;
    }
    let stride = (step * subs[0].coeff_of_var(v)).unsigned_abs();
    let rest_invariant = subs[1..].iter().all(|s| !s.mentions_var(v));
    if stride > 0 && stride < u64::from(cls) && rest_invariant {
        LevelReuse::Consecutive { stride }
    } else {
        LevelReuse::NoReuse
    }
}

/// Cache lines the whole array occupies (the footprint clamp), or ∞
/// when the extents cannot be evaluated.
fn array_lines_of(program: &Program, id: ArrayId, env: &Env, cls: u32) -> f64 {
    match program.array(id).len(env) {
        Ok(len) => ((len as f64) / f64::from(cls)).ceil().max(1.0),
        Err(_) => f64::INFINITY,
    }
}

/// Matches `member` as `rep` shifted by Δ iterations of one of the
/// representative's levels (outermost match wins): returns the level
/// index and |Δ|. `None` when the refs coincide, differ non-constantly,
/// or no single level explains the shift.
fn match_member_level(rep: &ArrayRef, member: &ArrayRef, levels: &[Lv]) -> Option<(usize, f64)> {
    if rep.rank() != member.rank() {
        return None;
    }
    let mut diffs = Vec::with_capacity(rep.rank());
    for (m, r) in member.subscripts().iter().zip(rep.subscripts()) {
        let d = m.clone() - r.clone();
        if !d.is_constant() {
            return None;
        }
        diffs.push(d.constant_term());
    }
    if diffs.iter().all(|&d| d == 0) {
        return None;
    }
    for (li, lv) in levels.iter().enumerate() {
        let moves: Vec<i64> = rep
            .subscripts()
            .iter()
            .map(|s| s.coeff_of_var(lv.var) * lv.step)
            .collect();
        let Some(p0) = moves.iter().position(|&m| m != 0) else {
            continue;
        };
        if diffs[p0] % moves[p0] != 0 {
            continue;
        }
        let delta = diffs[p0] / moves[p0];
        if delta == 0 || delta.abs() > 8 {
            continue;
        }
        if diffs
            .iter()
            .zip(&moves)
            .all(|(&d, &m)| d == delta.checked_mul(m).unwrap_or(i64::MAX))
        {
            return Some((li, delta.unsigned_abs() as f64));
        }
    }
    None
}

/// Assembles a [`RepLevels`] from the classified levels plus the
/// group's member bookkeeping. `member_acc` maps a member's statement
/// index to its total access count.
#[allow(clippy::too_many_arguments)]
fn build_rep(
    program: &Program,
    ctxs: &[(Vec<&Loop>, &Stmt)],
    g: &RefGroup,
    rep_ref: &ArrayRef,
    levels: Vec<Lv>,
    rep_acc: f64,
    member_acc: impl Fn(usize) -> f64,
    cls: u32,
    env: &Env,
) -> RepLevels {
    let array_id = rep_ref.array();
    let members = g
        .members
        .iter()
        .filter(|m| **m != g.representative)
        .map(|m| {
            let mref = ctxs[m.stmt_idx].1.refs()[m.ref_idx];
            let acc = member_acc(m.stmt_idx);
            match match_member_level(rep_ref, mref, &levels) {
                Some((li, delta)) => MemberInfo {
                    acc,
                    delta_level: Some((levels[li].loop_id, delta)),
                    rep_kind_at: levels[li].kind,
                },
                None => MemberInfo {
                    acc,
                    delta_level: None,
                    rep_kind_at: LevelReuse::Invariant,
                },
            }
        })
        .collect();
    RepLevels {
        array: program.array(array_id).name().to_string(),
        array_lines: array_lines_of(program, array_id, env, cls),
        rep_acc,
        levels,
        members,
    }
}

/// The set-mapping structure of the fresh-line walk below level `l`:
/// the non-invariant deeper levels, outer → inner, as [`StreamLevel`]s.
fn stream_levels(deeper: &[Lv]) -> Vec<StreamLevel> {
    deeper
        .iter()
        .filter(|iv| iv.trip > 0.0 && !matches!(iv.kind, LevelReuse::Invariant))
        .map(|iv| StreamLevel {
            fresh: (iv.trip * iv.rho).max(1.0).min(iv.trip.max(1.0)),
            line_stride: iv.line_stride,
        })
        .collect()
}

/// One group's one-iteration footprint under one loop, with the stream
/// structure that lays it out — the per-group decomposition of the
/// reuse distance [`distances`] sums.
struct LevelStream {
    group: usize,
    lines: f64,
    inner: Vec<StreamLevel>,
}

/// One-iteration footprints summed over all groups: `V[l]` is the
/// number of distinct lines one iteration of loop `l`'s body touches —
/// the reuse distance a level-`l` re-touch observes. Groups of the
/// same array overlap in the same lines, so their contributions clamp
/// at the array's own size before arrays sum — the union bound, not
/// the per-group sum. The second map keeps the per-group decomposition
/// (footprint + stream structure) so [`chain_histogram`] can tell a
/// bin which sibling streams make up its foreign distance.
fn distances(reps: &[RepLevels]) -> (HashMap<LoopId, f64>, HashMap<LoopId, Vec<LevelStream>>) {
    let mut per: HashMap<LoopId, HashMap<&str, (f64, f64)>> = HashMap::new();
    let mut at: HashMap<LoopId, Vec<LevelStream>> = HashMap::new();
    for (gi, rp) in reps.iter().enumerate() {
        let k = rp.levels.len();
        if k == 0 {
            continue;
        }
        let mut fp = vec![1.0f64; k];
        for l in (0..k - 1).rev() {
            fp[l] = (fp[l + 1] * rp.levels[l + 1].factor).min(rp.array_lines);
        }
        for (l, lv) in rp.levels.iter().enumerate() {
            let e = per
                .entry(lv.loop_id)
                .or_default()
                .entry(rp.array.as_str())
                .or_insert((0.0, rp.array_lines));
            e.0 += fp[l];
            at.entry(lv.loop_id).or_default().push(LevelStream {
                group: gi,
                lines: fp[l],
                inner: stream_levels(&rp.levels[l + 1..]),
            });
        }
    }
    let v = per
        .into_iter()
        .map(|(loop_id, arrays)| {
            let total = arrays.values().map(|&(sum, clamp)| sum.min(clamp)).sum();
            (loop_id, total)
        })
        .collect();
    (v, at)
}

/// The new-lines decomposition: walks the representative's levels
/// innermost → outermost, converting each level's re-touches into
/// histogram bins at that level's reuse distance, and conserving
/// accesses (`cold + Σ bins + immediate hits = accesses`).
fn chain_histogram(
    rp: &RepLevels,
    gi: usize,
    v: &HashMap<LoopId, f64>,
    at: &HashMap<LoopId, Vec<LevelStream>>,
) -> ReuseHistogram {
    let k = rp.levels.len();
    let mut h = ReuseHistogram::empty();
    // Lines one execution of the innermost body first-touches.
    let mut n_new = 1.0f64;
    for l in (0..k).rev() {
        let lv = &rp.levels[l];
        if lv.trip <= 0.0 {
            continue;
        }
        let dist = v.get(&lv.loop_id).copied().unwrap_or(1.0);
        // Fresh lines one execution of this level opens per deeper-block
        // line — the same quantity as `Lv::factor` (1 invariant,
        // trip·ρ consecutive, trip no-reuse); every other iteration
        // re-touches a surviving line at this level's reuse distance.
        let fresh = (lv.trip * lv.rho).max(1.0).min(lv.trip.max(1.0));
        let count = lv.blocks * (lv.trip - fresh).max(0.0) * n_new;
        h.push(dist, count);
        if count > 0.0 {
            // Set-mapping metadata for the geometry fold's
            // self-interference check: the re-touched working set is
            // this group's own deeper footprint (`n_new` lines), laid
            // out by the deeper levels' stride structure. Sibling
            // groups' streams at the same level become the bin's
            // foreign decomposition.
            let inner = stream_levels(&rp.levels[l + 1..]);
            let foreign: Vec<ForeignStream> = at
                .get(&lv.loop_id)
                .map(|ls| {
                    ls.iter()
                        .filter(|s| s.group != gi)
                        .map(|s| ForeignStream {
                            lines: s.lines,
                            inner: s.inner.clone(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            h.streams.push(StreamBin {
                distance: dist,
                count,
                own_lines: n_new,
                inner,
                foreign,
            });
        }
        n_new *= fresh;
    }
    // Conservation: reuses can overshoot when exact block counts meet
    // averaged trips (triangular fallback); rescale, never exceed the
    // access count.
    let mut reused = h.reuses();
    if reused > rp.rep_acc && reused > 0.0 {
        let scale = rp.rep_acc / reused;
        for b in &mut h.bins {
            b.1 *= scale;
        }
        for s in &mut h.streams {
            s.count *= scale;
        }
        reused = rp.rep_acc;
    }
    // First-touches beyond the array's own size are really sweeps over
    // the same lines again: reuses at the whole-array distance.
    let mut cold = rp.rep_acc - reused;
    if cold > rp.array_lines {
        h.push(rp.array_lines, cold - rp.array_lines);
        cold = rp.array_lines;
    }
    h.cold = cold;
    h.accesses = rp.rep_acc;
    // Members ride the representative's line stream. A member that is
    // the representative shifted by Δ iterations of a level where the
    // representative has *no* self-reuse re-touches lines the chain
    // never revisits — a real reuse at Δ× that level's distance. At a
    // consecutive/invariant level the chain already charges the
    // per-iteration re-touch, so the member's accesses are immediate
    // hits (they nestle next to representative accesses of the same
    // line).
    for m in &rp.members {
        h.accesses += m.acc;
        if let Some((lid, delta)) = m.delta_level {
            if matches!(m.rep_kind_at, LevelReuse::NoReuse) {
                let dist = v.get(&lid).copied().unwrap_or(1.0) * delta.max(1.0);
                h.push(dist, m.acc);
            }
        }
    }
    h.normalize();
    h
}

/// The linearized (column-major) element address of `r` with every
/// variable bound in `env`. `None` for unevaluable subscripts/extents.
fn lin_addr(program: &Program, r: &ArrayRef, env: &Env) -> Option<i64> {
    let dims = program.array(r.array()).dims();
    let mut mult = 1i64;
    let mut addr = 0i64;
    for (d, s) in r.subscripts().iter().enumerate() {
        addr = addr.saturating_add(s.eval(env).ok()?.saturating_mul(mult));
        let ext = dims.get(d)?.eval(env).ok()?;
        mult = mult.saturating_mul(ext.max(1));
    }
    Some(addr)
}

/// The exact element-level walk below a carrying level, as `(fresh
/// iterations, element stride)` pairs outer → inner: consecutive levels
/// walk line-by-line (`cls` elements apart), no-reuse levels walk at
/// their exact linearized stride. `None` when any stride is unknown —
/// the cross-group correction then stays off (conservative).
fn walk_of(deeper: &[Lv], cls: u32) -> Option<Vec<(u32, i64)>> {
    let mut w = Vec::new();
    for lv in deeper {
        if lv.trip <= 0.0 {
            continue;
        }
        match lv.kind {
            LevelReuse::Invariant => {}
            LevelReuse::Consecutive { .. } => {
                let fresh = (lv.trip * lv.rho).max(1.0).min(lv.trip.max(1.0)).round() as u32;
                w.push((fresh.max(1), i64::from(cls.max(1))));
            }
            LevelReuse::NoReuse => {
                if lv.elem_stride == 0 {
                    return None;
                }
                let fresh = lv.trip.max(1.0).round() as u32;
                w.push((fresh.max(1), lv.elem_stride));
            }
        }
    }
    if w.is_empty() {
        None
    } else {
        Some(w)
    }
}

/// The innermost loop level at which *both* groups are invariant with a
/// real re-walk (trip ≥ 2): the carrying level under which their line
/// walks interleave. Returns the level positions in each group.
fn innermost_common_invariant(a: &RepLevels, b: &RepLevels) -> Option<(usize, usize)> {
    for pi in (0..a.levels.len()).rev() {
        let la = &a.levels[pi];
        if !matches!(la.kind, LevelReuse::Invariant) || la.trip < 2.0 {
            continue;
        }
        if let Some(pj) = b.levels.iter().position(|lb| {
            lb.loop_id == la.loop_id && matches!(lb.kind, LevelReuse::Invariant) && lb.trip >= 2.0
        }) {
            return Some((pi, pj));
        }
    }
    None
}

/// The linearized base address of `r`'s walk for sample `t`: levels
/// deeper than `carry_pos` sit at their first iteration (the walk
/// enumeration covers them); the carrying level and everything outer
/// binds at its `t`-th iteration, clamped to the trip — a diagonal
/// sample of the outer iteration space, enough to see how the relative
/// offset of two walks moves across outer iterations.
fn walk_base(
    program: &Program,
    r: &ArrayRef,
    stack: &[&Loop],
    carry_pos: usize,
    env: &Env,
    t: i64,
) -> Option<i64> {
    let mut e = env.clone();
    for (d, l) in stack.iter().enumerate() {
        let lo = l.lower().eval(&e).ok()?;
        let hi = l.upper().eval(&e).ok()?;
        let trip = trip_count(lo, hi, l.step()) as i64;
        let it = if d > carry_pos {
            0
        } else {
            t.min((trip - 1).max(0))
        };
        e.bind_var(l.var(), lo + it * l.step());
    }
    lin_addr(program, r, &e)
}

/// Number of diagonal outer-iteration samples for the relative offset
/// of a cross-group walk pair.
const OFFSET_SAMPLES: i64 = 16;

/// Builds the nest-level cross-group conflict candidates: every pair of
/// same-array groups whose walks re-execute interleaved under a shared
/// invariant carrying level, with exactly-known element strides and a
/// small enough walk to enumerate. The geometry fold turns each into
/// extra direct-mapped conflict misses (see [`CrossStream`]).
fn cross_streams(
    program: &Program,
    ctxs: &[(Vec<&Loop>, &Stmt)],
    groups: &[RefGroup],
    reps: &[RepLevels],
    v: &HashMap<LoopId, f64>,
    env: &Env,
    cls: u32,
) -> Vec<CrossStream> {
    const WALK_BUDGET: f64 = 4096.0;
    let mut out = Vec::new();
    for i in 0..reps.len() {
        for j in (i + 1)..reps.len() {
            if reps[i].array != reps[j].array {
                continue;
            }
            let Some((pi, pj)) = innermost_common_invariant(&reps[i], &reps[j]) else {
                continue;
            };
            let Some(wa) = walk_of(&reps[i].levels[pi + 1..], cls) else {
                continue;
            };
            let Some(wb) = walk_of(&reps[j].levels[pj + 1..], cls) else {
                continue;
            };
            let n_a: f64 = wa.iter().map(|&(f, _)| f64::from(f)).product();
            let n_b: f64 = wb.iter().map(|&(f, _)| f64::from(f)).product();
            if n_a > WALK_BUDGET || n_b > WALK_BUDGET {
                continue;
            }
            let (lvi, lvj) = (&reps[i].levels[pi], &reps[j].levels[pj]);
            let rewalk_a = lvi.blocks * (lvi.trip - 1.0).max(0.0);
            let rewalk_b = lvj.blocks * (lvj.trip - 1.0).max(0.0);
            let rewalks = rewalk_a.min(rewalk_b);
            if rewalks <= 0.0 {
                continue;
            }
            let occ_a = groups[i].representative;
            let occ_b = groups[j].representative;
            let ra = ctxs[occ_a.stmt_idx].1.refs()[occ_a.ref_idx];
            let rb = ctxs[occ_b.stmt_idx].1.refs()[occ_b.ref_idx];
            let mut offsets = Vec::with_capacity(OFFSET_SAMPLES as usize);
            for t in 0..OFFSET_SAMPLES {
                let (Some(base_a), Some(base_b)) = (
                    walk_base(program, ra, &ctxs[occ_a.stmt_idx].0, pi, env, t),
                    walk_base(program, rb, &ctxs[occ_b.stmt_idx].0, pj, env, t),
                ) else {
                    offsets.clear();
                    break;
                };
                offsets.push(base_b - base_a);
            }
            if offsets.is_empty() {
                continue;
            }
            out.push(CrossStream {
                array: reps[i].array.clone(),
                distance: v.get(&lvi.loop_id).copied().unwrap_or(1.0),
                rewalks,
                cap: rewalk_a * n_a + rewalk_b * n_b,
                a: wa,
                b: wb,
                offsets,
            });
        }
    }
    out
}

/// Exact (budgeted) per-level iteration counts for one loop stack:
/// `counts[l]` = total executions of level `l`'s body.
fn stack_counts(stack: &[&Loop], env: &Env) -> (Vec<f64>, bool) {
    let mut counts = vec![0.0f64; stack.len()];
    let mut work_env = env.clone();
    let mut budget = ENUM_BUDGET;
    if count_rec(stack, 0, &mut work_env, 1.0, &mut counts, &mut budget) {
        return (counts, true);
    }
    let mut counts = vec![0.0f64; stack.len()];
    let mut work_env = env.clone();
    approx_rec(stack, 0, &mut work_env, 1.0, &mut counts);
    (counts, false)
}

fn counts_for<'c>(
    cache: &'c mut HashMap<Vec<LoopId>, (Vec<f64>, bool)>,
    stack: &[&Loop],
    env: &Env,
) -> &'c (Vec<f64>, bool) {
    let key: Vec<LoopId> = stack.iter().map(|l| l.id()).collect();
    cache.entry(key).or_insert_with(|| stack_counts(stack, env))
}

/// Fortran DO trip count.
fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    if step == 0 {
        return 0;
    }
    let span = if step > 0 { hi - lo } else { lo - hi };
    if span < 0 {
        0
    } else {
        (span / step.abs() + 1) as u64
    }
}

fn count_rec(
    stack: &[&Loop],
    d: usize,
    env: &mut Env,
    mult: f64,
    counts: &mut [f64],
    budget: &mut i64,
) -> bool {
    let l = stack[d];
    let (Ok(lo), Ok(hi)) = (l.lower().eval(env), l.upper().eval(env)) else {
        return false;
    };
    let step = l.step();
    let trip = trip_count(lo, hi, step);
    counts[d] += mult * trip as f64;
    if trip == 0 || d + 1 == stack.len() {
        return true;
    }
    let needs_enum = stack[d + 1..]
        .iter()
        .any(|inner| inner.lower().mentions_var(l.var()) || inner.upper().mentions_var(l.var()));
    if !needs_enum {
        // Deeper bounds ignore this variable; one recursion with the
        // multiplier carries the whole level.
        env.bind_var(l.var(), lo);
        let ok = count_rec(stack, d + 1, env, mult * trip as f64, counts, budget);
        env.unbind_var(l.var());
        return ok;
    }
    *budget -= trip as i64;
    if *budget < 0 {
        return false;
    }
    let mut v = lo;
    for _ in 0..trip {
        env.bind_var(l.var(), v);
        let ok = count_rec(stack, d + 1, env, mult, counts, budget);
        env.unbind_var(l.var());
        if !ok {
            return false;
        }
        v += step;
    }
    true
}

/// Midpoint fallback: every variable is bound at the middle of its
/// range, making trips per-level scalars (exact for rectangular nests).
fn approx_rec(stack: &[&Loop], d: usize, env: &mut Env, mult: f64, counts: &mut [f64]) {
    let l = stack[d];
    let lo = l.lower().eval(env).unwrap_or(1);
    let hi = l.upper().eval(env).unwrap_or(0);
    let step = l.step();
    let trip = trip_count(lo, hi, step);
    counts[d] += mult * trip as f64;
    if trip == 0 || d + 1 == stack.len() {
        return;
    }
    let mid = lo + ((trip as i64 - 1) / 2) * step;
    env.bind_var(l.var(), mid);
    approx_rec(stack, d + 1, env, mult * trip as f64, counts);
    env.unbind_var(l.var());
}

/// Reuse analysis of a bare top-level statement: every distinct
/// reference costs one cold line; repeats are immediate hits. No bins.
fn stmt_reuse(program: &Program, label: String, s: &Stmt, cls: u32) -> NestReuse {
    let refs = s.refs();
    let mut groups: Vec<(&ArrayRef, f64)> = Vec::new();
    for r in &refs {
        match groups.iter_mut().find(|(q, _)| *q == *r) {
            Some((_, c)) => *c += 1.0,
            None => groups.push((r, 1.0)),
        }
    }
    let groups: Vec<GroupReuse> = groups
        .into_iter()
        .map(|(r, count)| GroupReuse {
            array: program.array(r.array()).name().to_string(),
            accesses: count,
            histogram: ReuseHistogram {
                bins: Vec::new(),
                streams: Vec::new(),
                cold: 1.0,
                accesses: count,
            },
        })
        .collect();
    NestReuse {
        label,
        cls,
        accesses: refs.len() as f64,
        exact: true,
        groups,
        cross: Vec::new(),
    }
}

fn loop_reuse(program: &Program, root: &Loop, label: String, n: i64, cls: u32) -> NestReuse {
    let nodes = [Node::Loop(root.clone())];
    let ctxs = stmts_with_context(&nodes);
    if ctxs.is_empty() {
        return NestReuse {
            label,
            cls,
            accesses: 0.0,
            exact: true,
            groups: Vec::new(),
            cross: Vec::new(),
        };
    }
    let graph = analyze_nest(program, root);
    let env = program.param_env(&[n]);

    let groups = merged_ref_groups(cls, &ctxs, &graph);

    let mut cache: HashMap<Vec<LoopId>, (Vec<f64>, bool)> = HashMap::new();
    let mut exact = true;
    let reps: Vec<RepLevels> = groups
        .iter()
        .map(|g| {
            let (stack, stmt) = &ctxs[g.representative.stmt_idx];
            let r = stmt.refs()[g.representative.ref_idx];
            let (counts, ok) = counts_for(&mut cache, stack, &env).clone();
            exact &= ok;
            let mut levels = Vec::with_capacity(stack.len());
            for (i, l) in stack.iter().enumerate() {
                let blocks = if i == 0 { 1.0 } else { counts[i - 1] };
                let trip = if blocks > 0.0 {
                    counts[i] / blocks
                } else {
                    0.0
                };
                levels.push(Lv::build(program, &env, l, trip, blocks, r, cls));
            }
            let rep_acc = counts.last().copied().unwrap_or(0.0);
            let mut member_accs: HashMap<usize, f64> = HashMap::new();
            for m in &g.members {
                if *m == g.representative {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = member_accs.entry(m.stmt_idx)
                {
                    let (mc, mok) = counts_for(&mut cache, &ctxs[m.stmt_idx].0, &env).clone();
                    exact &= mok;
                    e.insert(mc.last().copied().unwrap_or(0.0));
                }
            }
            build_rep(
                program,
                &ctxs,
                g,
                r,
                levels,
                rep_acc,
                |si| member_accs.get(&si).copied().unwrap_or(0.0),
                cls,
                &env,
            )
        })
        .collect();

    let (v, at) = distances(&reps);
    let out_groups: Vec<GroupReuse> = reps
        .iter()
        .enumerate()
        .map(|(gi, rp)| {
            let h = chain_histogram(rp, gi, &v, &at);
            GroupReuse {
                array: rp.array.clone(),
                accesses: h.accesses,
                histogram: h,
            }
        })
        .collect();
    let cross = cross_streams(program, &ctxs, &groups, &reps, &v, &env, cls);
    let accesses = out_groups.iter().map(|g| g.accesses).sum();
    NestReuse {
        label,
        cls,
        accesses,
        exact,
        groups: out_groups,
        cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::affine::Affine;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    fn matmul() -> Program {
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
        b.finish()
    }

    #[test]
    fn matmul_access_counts_are_exact() {
        let p = matmul();
        let r = nest_reuse(&p, 0, 64, 4);
        // 4 refs × 64³ iterations.
        assert_eq!(r.accesses, 4.0 * 64.0 * 64.0 * 64.0);
        assert!(r.exact);
        assert_eq!(r.groups.len(), 3);
    }

    #[test]
    fn matmul_misses_match_known_behaviour() {
        // i860 geometry: 8 KB / 32 B lines → 256 lines, cls = 4.
        let p = matmul();
        let r = nest_reuse(&p, 0, 64, 4);
        let a_group = r.groups.iter().find(|g| g.array == "A").unwrap();
        // A(I,K) with K innermost: every K touches a fresh line, rows
        // reused across J (fits), so ~64 lines × 64 I-iterations miss.
        let miss = a_group.histogram.misses_at(256.0);
        assert!(
            (miss - 4096.0).abs() / 4096.0 < 0.1,
            "A misses = {miss}, want ≈ 4096"
        );
        // In a huge cache only the footprint misses.
        let cold = a_group.histogram.misses_at(1e9);
        assert!(
            (cold - 1024.0).abs() / 1024.0 < 0.1,
            "A cold = {cold}, want ≈ 1024"
        );
    }

    #[test]
    fn zero_trip_nest_is_empty() {
        let mut b = ProgramBuilder::new("zero");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 5, 4, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [i, j]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let p = b.finish();
        let r = nest_reuse(&p, 0, 16, 4);
        assert_eq!(r.accesses, 0.0);
        for g in &r.groups {
            assert!(g.histogram.bins.is_empty(), "{:?}", g.histogram);
            assert_eq!(g.histogram.misses_at(1.0), 0.0);
        }
    }

    #[test]
    fn single_iteration_nest_has_no_reuse_bins() {
        let mut b = ProgramBuilder::new("one");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 3, 3, |b| {
            let i = b.var("I");
            let lhs = b.at(a, [i, i]);
            b.assign(lhs, Expr::Const(1.0));
        });
        let p = b.finish();
        let r = nest_reuse(&p, 0, 16, 4);
        assert_eq!(r.accesses, 1.0);
        for g in &r.groups {
            assert!(g.histogram.bins.is_empty());
            assert_eq!(g.histogram.cold, 1.0);
        }
    }

    #[test]
    fn triangular_counts_are_exact() {
        // DO I = 1, N; DO J = 1, I: N(N+1)/2 inner iterations.
        let mut b = ProgramBuilder::new("tri");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            b.loop_("J", 1, i, |b| {
                let j = b.var("J");
                let lhs = b.at(a, [j, i]);
                b.assign(lhs, Expr::Const(0.0));
            });
        });
        let p = b.finish();
        let r = nest_reuse(&p, 0, 20, 4);
        assert!(r.exact);
        assert_eq!(r.accesses, (20.0 * 21.0) / 2.0);
    }

    #[test]
    fn offset_member_carries_outer_reuse() {
        // A(J,I) = A(J,I-1) with I outermost: the member re-reads the
        // previous I-iteration's column — distance ≈ one I-iteration
        // footprint, a real miss in a small cache.
        let mut b = ProgramBuilder::new("off");
        let n = b.param("N");
        let a = b.matrix("A", n);
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(a, [j, i]);
                let rhs = Expr::load(b.at_vec(a, vec![Affine::var(j), Affine::var(i) - 1]));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let r = nest_reuse(&p, 0, 64, 4);
        let g = &r.groups[0];
        // Member accesses (63×64) sit at a distance ≈ 2 columns (~32
        // lines): hits in a 256-line cache, misses in an 8-line cache.
        let small = g.histogram.misses_at(8.0);
        let large = g.histogram.misses_at(256.0);
        assert!(
            small > large + 3000.0,
            "member reuse must miss when the cache is tiny: small={small} large={large}"
        );
    }

    #[test]
    fn cross_group_lattice_conflicts_are_detected() {
        // Two same-array walks interleaved under the K-invariant level:
        // the write B(L,L,L) strides 4161 elements per L, the read
        // B(L-1,L-1,J) strides 65 — congruent modulo the 8192-element
        // set period of a 4096-set × 2-element direct-mapped geometry,
        // so ~half the walk positions ping-pong in shared sets.
        let mut b = ProgramBuilder::new("lat");
        let n = b.param("N");
        let arr = b.array(
            "B",
            vec![
                cmt_ir::array::Extent::param(n),
                cmt_ir::array::Extent::param(n),
                cmt_ir::array::Extent::param(n),
            ],
        );
        b.loop_("I", 2, n, |b| {
            b.loop_("J", 1, n, |b| {
                b.loop_("K", 1, Affine::param(n) - 1, |b| {
                    b.loop_("L", 2, n, |b| {
                        let (l, j) = (b.var("L"), b.var("J"));
                        let lhs = b.at(arr, [Affine::var(l), Affine::var(l), Affine::var(l)]);
                        let rhs = b.at(
                            arr,
                            [Affine::var(l) - 1, Affine::var(l) - 1, Affine::var(j)],
                        );
                        b.assign(lhs, Expr::load(rhs));
                    });
                });
            });
        });
        let p = b.finish();
        let r = nest_reuse(&p, 0, 64, 2);
        assert!(!r.cross.is_empty(), "expected a cross-group candidate");
        let cs = &r.cross[0];
        let extra = cs.extra_misses(4096, 1, 2);
        assert!(extra > 1e7, "lattice extra misses expected: {extra}");
        // Two ways absorb a depth-2 collision.
        assert_eq!(cs.extra_misses(2048, 2, 2), 0.0);
    }

    #[test]
    fn candidate_misses_prefers_streaming_inner_loop() {
        // Strided copy: J innermost streams (cheap), I innermost jumps.
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [j, i]);
                let rhs = Expr::load(b.at(a, [j, i]));
                b.assign(lhs, rhs);
            });
        });
        let p = b.finish();
        let root = p.nests()[0];
        // 32 lines: big enough for streaming, too small to hold a whole
        // 64-line sweep (at 256 lines both orders' working sets fit and
        // a fully-associative model correctly calls them equal).
        let mm = candidate_misses(&p, root, 64, 4, 32.0);
        assert_eq!(mm.len(), 2);
        // With J innermost (first subscript J strides by 1) misses are
        // far fewer than with I innermost (stride N).
        let by_var: HashMap<LoopId, f64> = mm.into_iter().collect();
        let i_id = root.id();
        let j_id = root.only_loop_child().unwrap().id();
        assert!(
            by_var[&i_id] > 2.0 * by_var[&j_id],
            "I-innermost {} vs J-innermost {}",
            by_var[&i_id],
            by_var[&j_id]
        );
    }
}
