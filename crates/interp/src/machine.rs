//! Simulated memory: arrays, layout, and parameter bindings.

use crate::exec::ExecError;
use cmt_ir::affine::Env;
use cmt_ir::ids::{ArrayId, ParamId};
use cmt_ir::program::Program;

/// Size of one array element in bytes (`f64`, Fortran `REAL*8`).
pub const ELEMENT_BYTES: u64 = 8;

/// Alignment of each array's base address.
const BASE_ALIGN: u64 = 1024;

/// Storage for one array.
#[derive(Clone, Debug)]
pub struct ArrayStorage {
    /// Base byte address in the simulated address space.
    pub base: u64,
    /// Evaluated extents, leftmost (contiguous) first.
    pub dims: Vec<i64>,
    /// Element data, column-major.
    pub data: Vec<f64>,
}

impl ArrayStorage {
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
}

/// A program's runtime state: bound parameters and allocated arrays.
///
/// Arrays are laid out sequentially in a fresh address space, each base
/// aligned to 1 KiB with a guard gap, so distinct arrays never share a
/// cache line.
#[derive(Clone, Debug)]
pub struct Machine {
    env: Env,
    arrays: Vec<ArrayStorage>,
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
            let len: i64 = dims.iter().product();
            let storage = ArrayStorage {
                base: next_base,
                dims,
                data: vec![0.0; len as usize],
            };
            next_base = storage.base + len as u64 * ELEMENT_BYTES;
            // Guard gap + realignment.
            next_base = (next_base + BASE_ALIGN) / BASE_ALIGN * BASE_ALIGN + BASE_ALIGN;
            arrays.push(storage);
        }
        let mut m = Machine { env, arrays };
        m.init_default();
        Ok(m)
    }

    /// Parameter value lookup.
    pub fn param(&self, p: ParamId) -> Option<i64> {
        self.env.param(p)
    }

    /// Storage of an array.
    ///
    /// # Panics
    ///
    /// Panics if the id was not allocated by this machine.
    pub fn storage(&self, id: ArrayId) -> &ArrayStorage {
        &self.arrays[id.index()]
    }

    /// Mutable storage of an array.
    pub(crate) fn storage_mut(&mut self, id: ArrayId) -> &mut ArrayStorage {
        &mut self.arrays[id.index()]
    }

    /// The element data of an array.
    pub fn array_data(&self, id: ArrayId) -> &[f64] {
        &self.arrays[id.index()].data
    }

    /// Deterministic default initialization: strictly positive,
    /// diagonally-dominant-ish values, so numerically sensitive kernels
    /// (Cholesky's `SQRT`, ADI's divisions) stay finite.
    pub fn init_default(&mut self) {
        for (aid, st) in self.arrays.iter_mut().enumerate() {
            for (k, x) in st.data.iter_mut().enumerate() {
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
        for (aid, st) in self.arrays.iter_mut().enumerate() {
            for (k, x) in st.data.iter_mut().enumerate() {
                *x = f(ArrayId(aid as u32), k);
            }
        }
    }

    /// Total allocated elements across arrays.
    pub fn total_elements(&self) -> usize {
        self.arrays.iter().map(|a| a.data.len()).sum()
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
        let a_end = a.address_of(a.data.len() - 1) + ELEMENT_BYTES;
        assert!(b.base >= a_end + 128, "guard gap expected");
        assert_eq!(b.base % BASE_ALIGN, 0);
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
