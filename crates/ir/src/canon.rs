//! Canonical structural hashing of programs: the memo-cache key for
//! the optimization service.
//!
//! [`nest_key`] reduces a program to a [`NestKey`] that is invariant
//! under everything that cannot change what the optimizer does:
//!
//! * **alpha-renaming** — loop variables are numbered by binding depth,
//!   arrays by first use in the body, parameters by declaration index;
//!   source-level names (including the program name) never enter the
//!   hash;
//! * **declaration reordering** — arrays hash in first-use order, so
//!   permuting the `REAL` declarations of a program leaves the key
//!   unchanged (arrays the body never touches are appended in a
//!   name-free canonical order);
//! * **re-serialization** — the key is computed from the IR structure,
//!   so `parse(pretty(p))` produces the same key even though every
//!   internal id was reassigned.
//!
//! Bounds are normalized by rendering each [`Affine`] with its variable
//! terms sorted by binding depth and parameter terms by parameter
//! index, so syntactically shuffled but equal bounds agree.
//!
//! The key is 128 bits (two independent FNV-1a streams over the
//! canonical form), which makes accidental collisions across any
//! realistic corpus vanishingly unlikely; the 256-seed fuzz corpus is
//! pinned collision-free in the service crate's tests.

use crate::affine::Affine;
use crate::expr::Expr;
use crate::ids::{ArrayId, VarId};
use crate::node::{Loop, Node};
use crate::program::Program;
use crate::stmt::ArrayRef;
use std::fmt::{self, Write as _};

/// A 128-bit structural hash of a program (see module docs for the
/// invariances). Ordered and hashable so it can key any map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NestKey(pub [u64; 2]);

impl NestKey {
    /// The key of an already rendered [`canonical_source`], so a caller
    /// that keeps the rendering need not render it twice.
    pub fn of_canonical(source: &str) -> NestKey {
        NestKey(fnv1a_pair(source.as_bytes()))
    }

    /// Lower-case 32-character hex rendering, the wire format.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for NestKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
// Second stream: FNV-1a from an independent, odd offset basis.
const FNV_BASIS2: u64 = FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15;

/// Both FNV-1a streams over `bytes`, advanced together in one pass.
fn fnv1a_pair(bytes: &[u8]) -> [u64; 2] {
    let mut h = [FNV_BASIS, FNV_BASIS2];
    for &b in bytes {
        for s in &mut h {
            *s = (*s ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Renders the name-free canonical form [`nest_key`] hashes. Exposed
/// for debugging and for collision tests: two programs share a key by
/// construction iff their canonical sources are byte-identical.
pub fn canonical_source(p: &Program) -> String {
    Canon::new(p).render()
}

/// Computes the canonical structural key of `p`.
pub fn nest_key(p: &Program) -> NestKey {
    NestKey::of_canonical(&canonical_source(p))
}

struct Canon<'p> {
    p: &'p Program,
    /// ArrayId index → canonical index, assigned at first use.
    array_slot: Vec<Option<usize>>,
    /// Canonical array signatures, in first-use order.
    array_sigs: Vec<String>,
    /// Innermost-last stack of bound loop variables.
    scope: Vec<VarId>,
}

// The renderers append to one output string; writing to a `String`
// cannot fail, so their `fmt::Result`s are discarded.
impl<'p> Canon<'p> {
    fn new(p: &'p Program) -> Self {
        Canon {
            p,
            array_slot: vec![None; p.arrays().len()],
            array_sigs: Vec::new(),
            scope: Vec::new(),
        }
    }

    fn render(mut self) -> String {
        let mut body = String::new();
        for node in self.p.body() {
            self.node(node, &mut body);
        }
        // Arrays the body never references cannot influence the
        // optimizer; fold them in by shape only, order-free.
        let mut unused: Vec<String> = (0..self.p.arrays().len())
            .filter(|&k| self.array_slot[k].is_none())
            .map(|k| self.array_sig(ArrayId(k as u32)))
            .collect();
        unused.sort();
        let mut out = format!("params:{}\n", self.p.params().len());
        for (i, sig) in self.array_sigs.iter().enumerate() {
            let _ = writeln!(out, "array a{i}:{sig}");
        }
        for sig in unused {
            let _ = writeln!(out, "array _:{sig}");
        }
        out.push_str(&body);
        out
    }

    fn array_sig(&self, id: ArrayId) -> String {
        let info = &self.p.arrays()[id.0 as usize];
        let mut out = String::from("[");
        for (i, d) in info.dims().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.affine(d.as_affine(), &mut out);
        }
        out.push(']');
        out
    }

    fn node(&mut self, n: &Node, out: &mut String) {
        match n {
            Node::Loop(l) => self.loop_(l, out),
            Node::Stmt(s) => {
                self.array_ref(s.lhs(), out);
                out.push('=');
                self.expr(s.rhs(), out);
                out.push_str(";\n");
            }
        }
    }

    fn loop_(&mut self, l: &Loop, out: &mut String) {
        let _ = write!(out, "do v{}=(", self.scope.len());
        self.affine(l.lower(), out);
        out.push_str(")..(");
        self.affine(l.upper(), out);
        let _ = writeln!(out, ")step{}{{", l.step());
        self.scope.push(l.var());
        for child in l.body() {
            self.node(child, out);
        }
        self.scope.pop();
        out.push_str("}\n");
    }

    fn array_ref(&mut self, r: &ArrayRef, out: &mut String) {
        let k = r.array().0 as usize;
        let slot = match self.array_slot.get(k).copied().flatten() {
            Some(s) => s,
            None => {
                let s = self.array_sigs.len();
                if k < self.array_slot.len() {
                    self.array_slot[k] = Some(s);
                }
                let sig = self.array_sig(r.array());
                self.array_sigs.push(sig);
                s
            }
        };
        let _ = write!(out, "a{slot}(");
        for (i, a) in r.subscripts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.affine(a, out);
        }
        out.push(')');
    }

    /// Binding depth of `v`: the innermost binding wins, matching
    /// variable shadowing. A free variable cannot be alpha-renamed; it
    /// keeps its raw id, offset past any real depth.
    fn depth_of(&self, v: VarId) -> i64 {
        self.scope
            .iter()
            .rposition(|&b| b == v)
            .map(|d| d as i64)
            .unwrap_or(v.0 as i64 + 1_000_000)
    }

    /// Renders an affine form with variable terms sorted by binding
    /// depth and parameter terms by parameter index — the bound
    /// normalization. Distinct variables have distinct depths, so the
    /// variable terms are emitted by repeatedly taking the shallowest one
    /// not yet written; parameter terms are stored in index order.
    fn affine(&self, a: &Affine, out: &mut String) {
        let _ = write!(out, "{}", a.constant_term());
        let mut written = -1;
        while let Some((d, c)) = a
            .var_terms()
            .filter(|&(_, c)| c != 0)
            .map(|(v, c)| (self.depth_of(v), c))
            .filter(|&(d, _)| d > written)
            .min()
        {
            let _ = write!(out, "{c:+}v{d}");
            written = d;
        }
        for (p, c) in a.param_terms().filter(|&(_, c)| c != 0) {
            let _ = write!(out, "{c:+}p{}", p.0);
        }
    }

    fn expr(&mut self, e: &Expr, out: &mut String) {
        match e {
            // Bit-exact constants: formatting must not lose precision.
            Expr::Const(c) => {
                let _ = write!(out, "c{:016x}", c.to_bits());
            }
            Expr::Index(v) => {
                let _ = write!(out, "v{}", self.depth_of(*v));
            }
            Expr::Param(p) => {
                let _ = write!(out, "p{}", p.0);
            }
            Expr::Load(r) => self.array_ref(r, out),
            Expr::Unary(op, inner) => {
                let _ = write!(out, "{op:?}(");
                self.expr(inner, out);
                out.push(')');
            }
            Expr::Binary(op, a, b) => {
                let _ = write!(out, "{op:?}(");
                self.expr(a, out);
                out.push(',');
                self.expr(b, out);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;
    use crate::parse::parse_program;
    use crate::pretty::program_to_source;

    /// `C(i,j) = A(i,j) + A(i,j+1)` under configurable names and array
    /// declaration order.
    fn copy_like(program_name: &str, names: [&str; 2], a_first: bool) -> Program {
        let mut b = ProgramBuilder::new(program_name);
        let n = b.param("N");
        let (a, c) = if a_first {
            (b.matrix("A", n), b.matrix("C", n))
        } else {
            let c = b.matrix("C", n);
            (b.matrix("A", n), c)
        };
        b.loop_(names[0], 1, n, |b| {
            b.loop_(names[1], 1, n, |b| {
                let (i, j) = (b.var(names[0]), b.var(names[1]));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::Binary(
                    crate::expr::BinOp::Add,
                    Box::new(Expr::load(b.at(a, [i, j]))),
                    Box::new(Expr::load(b.at(a, [Affine::var(i), Affine::var(j) + 1]))),
                );
                b.assign(lhs, rhs);
            });
        });
        b.finish()
    }

    #[test]
    fn alpha_renaming_loop_vars_preserves_key() {
        let p = copy_like("copy", ["I", "J"], true);
        let q = copy_like("copy", ["II", "KK"], true);
        assert_eq!(nest_key(&p), nest_key(&q));
        assert_eq!(canonical_source(&p), canonical_source(&q));
    }

    #[test]
    fn reordering_array_declarations_preserves_key() {
        let p = copy_like("copy", ["I", "J"], true);
        let q = copy_like("copy", ["I", "J"], false);
        assert_eq!(nest_key(&p), nest_key(&q));
    }

    #[test]
    fn reserialization_preserves_key() {
        let p = copy_like("copy", ["I", "J"], true);
        let src = program_to_source(&p);
        let q = parse_program(&src).expect("round-trip parse");
        assert_eq!(nest_key(&p), nest_key(&q));
    }

    #[test]
    fn distinct_subscript_structure_changes_key() {
        let ij = copy_like("t", ["I", "J"], true);
        // Same shape but transposed A accesses: different dependence
        // structure, must not collide.
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                let rhs = Expr::Binary(
                    crate::expr::BinOp::Add,
                    Box::new(Expr::load(b.at(a, [j, i]))),
                    Box::new(Expr::load(b.at(a, [Affine::var(j), Affine::var(i) + 1]))),
                );
                b.assign(lhs, rhs);
            });
        });
        let ji = b.finish();
        assert_ne!(nest_key(&ij), nest_key(&ji));
    }

    #[test]
    fn program_name_never_enters_the_key() {
        let p = copy_like("one-name", ["I", "J"], true);
        let q = copy_like("another-name", ["I", "J"], true);
        assert_eq!(nest_key(&p), nest_key(&q));
    }

    #[test]
    fn hex_rendering_is_stable_and_32_chars() {
        let p = copy_like("copy", ["I", "J"], true);
        let k = nest_key(&p);
        assert_eq!(k.to_hex().len(), 32);
        assert_eq!(k.to_hex(), format!("{k}"));
    }
}
