//! Simulated memory: the layout of a program's arrays, and the values
//! [`Machine::run`] computes in it.

use crate::exec::ExecError;
use cmt_ir::affine::Env;
use cmt_ir::ids::{ArrayId, ParamId};
use cmt_ir::program::Program;

/// Size of one array element in bytes (`f64`, Fortran `REAL*8`).
pub const ELEMENT_BYTES: u64 = 8;

/// Alignment of each array's base address.
const BASE_ALIGN: u64 = 1024;

/// Where one array lives.
#[derive(Clone, Debug)]
pub struct ArrayLayout {
    /// Base byte address in the simulated address space.
    pub base: u64,
    /// Evaluated extents, leftmost (contiguous) first.
    pub dims: Vec<i64>,
}

impl ArrayLayout {
    /// The linear element index of a (1-based) subscript tuple, or `None`
    /// when out of bounds.
    pub fn linear_index(&self, subs: &[i64]) -> Option<usize> {
        if subs.len() != self.dims.len() {
            return None;
        }
        let mut idx: i64 = 0;
        let mut stride: i64 = 1;
        for (s, d) in subs.iter().zip(&self.dims) {
            if *s < 1 || *s > *d {
                return None;
            }
            idx += (s - 1) * stride;
            stride *= d;
        }
        Some(idx as usize)
    }

    /// Byte address of an element by linear index.
    pub fn address_of(&self, linear: usize) -> u64 {
        self.base + linear as u64 * ELEMENT_BYTES
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.dims.iter().product::<i64>() as usize
    }
}

/// A program's address space: bound parameters and each array's base
/// and extents, but no element values.
///
/// Arrays are laid out sequentially, each base aligned to 1 KiB with a
/// guard gap, so distinct arrays never share a cache line. The IR has
/// no value-dependent control flow, so a program's address trace is a
/// function of its layout alone: [`Layout::trace`] produces it without
/// computing or allocating any array.
#[derive(Clone, Debug)]
pub struct Layout {
    env: Env,
    arrays: Vec<ArrayLayout>,
}

impl Layout {
    /// Lays out `program`'s arrays with the given parameter values (in
    /// declaration order).
    ///
    /// # Errors
    ///
    /// Returns an error if an array extent evaluates non-positive or
    /// references an unbound parameter.
    pub fn new(program: &Program, param_values: &[i64]) -> Result<Layout, ExecError> {
        let env = program.param_env(param_values);
        let mut arrays = Vec::with_capacity(program.arrays().len());
        let mut next_base: u64 = BASE_ALIGN;
        for info in program.arrays() {
            let mut dims = Vec::with_capacity(info.rank());
            for e in info.dims() {
                let v = e.eval(&env).map_err(|e| ExecError::Eval(e.to_string()))?;
                if v < 1 {
                    return Err(ExecError::BadExtent {
                        array: info.name().to_string(),
                        extent: v,
                    });
                }
                dims.push(v);
            }
            let array = ArrayLayout {
                base: next_base,
                dims,
            };
            next_base = array.base + array.elements() as u64 * ELEMENT_BYTES;
            // Guard gap + realignment.
            next_base = (next_base + BASE_ALIGN) / BASE_ALIGN * BASE_ALIGN + BASE_ALIGN;
            arrays.push(array);
        }
        Ok(Layout { env, arrays })
    }

    /// Parameter value lookup.
    pub fn param(&self, p: ParamId) -> Option<i64> {
        self.env.param(p)
    }

    /// The layout of an array.
    ///
    /// # Panics
    ///
    /// Panics if the id was not laid out by this layout.
    pub fn array(&self, id: ArrayId) -> &ArrayLayout {
        &self.arrays[id.index()]
    }

    /// Each array of `program` (the program this layout was built for)
    /// as `(name, first byte address, bytes)`, in declaration order: the
    /// regions a cache simulator registers for attribution and cold
    /// tracking.
    pub fn regions<'a>(
        &'a self,
        program: &'a Program,
    ) -> impl Iterator<Item = (&'a str, u64, u64)> + 'a {
        program
            .arrays()
            .iter()
            .zip(&self.arrays)
            .map(|(info, a)| (info.name(), a.base, a.elements() as u64 * ELEMENT_BYTES))
    }
}

/// A program's runtime state: its [`Layout`] plus the `f64` contents of
/// every array, which only [`Machine::run`] reads and writes.
#[derive(Clone, Debug)]
pub struct Machine {
    layout: Layout,
    data: Vec<Vec<f64>>,
}

impl Machine {
    /// Allocates arrays for `program` with the given parameter values (in
    /// declaration order) and default-initialized contents (see
    /// [`Machine::init_default`]).
    ///
    /// # Errors
    ///
    /// Returns an error if an array extent evaluates non-positive or
    /// references an unbound parameter.
    pub fn new(program: &Program, param_values: &[i64]) -> Result<Machine, ExecError> {
        let layout = Layout::new(program, param_values)?;
        let data = layout
            .arrays
            .iter()
            .map(|a| vec![0.0; a.elements()])
            .collect();
        let mut m = Machine { layout, data };
        m.init_default();
        Ok(m)
    }

    /// The machine's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Parameter value lookup.
    pub fn param(&self, p: ParamId) -> Option<i64> {
        self.layout.param(p)
    }

    /// The layout of an array.
    ///
    /// # Panics
    ///
    /// Panics if the id was not allocated by this machine.
    pub fn storage(&self, id: ArrayId) -> &ArrayLayout {
        self.layout.array(id)
    }

    /// The element data of an array.
    pub fn array_data(&self, id: ArrayId) -> &[f64] {
        &self.data[id.index()]
    }

    /// The layout, and every array's element data mutably.
    pub(crate) fn layout_and_data(&mut self) -> (&Layout, &mut [Vec<f64>]) {
        (&self.layout, &mut self.data)
    }

    /// Deterministic default initialization: strictly positive,
    /// diagonally-dominant-ish values, so numerically sensitive kernels
    /// (Cholesky's `SQRT`, ADI's divisions) stay finite.
    pub fn init_default(&mut self) {
        for (aid, data) in self.data.iter_mut().enumerate() {
            for (k, x) in data.iter_mut().enumerate() {
                let h = (k as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((aid as u64).wrapping_mul(1442695040888963407));
                // In [1.0, 2.0): positive and bounded away from zero.
                *x = 1.0 + (h >> 11) as f64 / (1u64 << 53) as f64;
            }
        }
    }

    /// Custom initialization: `f(array, linear_index)` supplies each
    /// element.
    pub fn init_with(&mut self, f: impl Fn(ArrayId, usize) -> f64) {
        for (aid, data) in self.data.iter_mut().enumerate() {
            for (k, x) in data.iter_mut().enumerate() {
                *x = f(ArrayId(aid as u32), k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_ir::build::ProgramBuilder;

    fn program() -> Program {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        b.array("A", vec![n.into(), n.into()]);
        b.array("B", vec![n.into()]);
        b.finish()
    }

    #[test]
    fn layout_is_column_major() {
        let p = program();
        let m = Machine::new(&p, &[4]).unwrap();
        let a = m.storage(ArrayId(0));
        // A(2,1) is element 1; A(1,2) is element 4.
        assert_eq!(a.linear_index(&[2, 1]), Some(1));
        assert_eq!(a.linear_index(&[1, 2]), Some(4));
        assert_eq!(a.linear_index(&[4, 4]), Some(15));
        assert_eq!(a.linear_index(&[5, 1]), None);
        assert_eq!(a.linear_index(&[0, 1]), None);
    }

    #[test]
    fn arrays_do_not_share_lines() {
        let p = program();
        let m = Machine::new(&p, &[16]).unwrap();
        let a = m.storage(ArrayId(0));
        let b = m.storage(ArrayId(1));
        let a_end = a.address_of(a.elements() - 1) + ELEMENT_BYTES;
        assert!(b.base >= a_end + 128, "guard gap expected");
        assert_eq!(b.base % BASE_ALIGN, 0);
    }

    #[test]
    fn regions_are_the_machine_layout() {
        let p = program();
        let m = Machine::new(&p, &[4]).unwrap();
        let layout = Layout::new(&p, &[4]).unwrap();
        let regions: Vec<_> = layout.regions(&p).collect();
        let (a, b) = (m.storage(ArrayId(0)), m.storage(ArrayId(1)));
        assert_eq!(regions, vec![("A", a.base, 16 * 8), ("B", b.base, 4 * 8)]);
        assert_eq!(m.array_data(ArrayId(0)).len(), a.elements());
    }

    #[test]
    fn default_init_is_positive_and_deterministic() {
        let p = program();
        let m1 = Machine::new(&p, &[8]).unwrap();
        let m2 = Machine::new(&p, &[8]).unwrap();
        assert_eq!(m1.array_data(ArrayId(0)), m2.array_data(ArrayId(0)));
        assert!(m1
            .array_data(ArrayId(0))
            .iter()
            .all(|&x| (1.0..2.0).contains(&x)));
    }

    #[test]
    fn bad_extent_reported() {
        let p = program();
        let err = Machine::new(&p, &[0]).unwrap_err();
        assert!(matches!(err, ExecError::BadExtent { .. }), "{err:?}");
    }

    #[test]
    fn custom_init() {
        let p = program();
        let mut m = Machine::new(&p, &[2]).unwrap();
        m.init_with(|a, k| a.index() as f64 * 100.0 + k as f64);
        assert_eq!(m.array_data(ArrayId(1))[1], 101.0);
    }
}
