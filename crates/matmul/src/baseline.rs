//! The vendor-library stand-in (Intel MKL substitute).
//!
//! The paper compares PACO MM against Intel MKL's parallel `dgemm`.  MKL is
//! closed source and unavailable here, so the strongest conventional baseline
//! we can build from scratch stands in: a statically tiled, loop-ordered,
//! rayon-parallel `f64` matrix multiplication.  It is processor-count-agnostic
//! (static tiling + dynamic scheduling over row panels), which is exactly the
//! kind of "vendor library" behaviour the PACO comparison is about: a fixed
//! partitioning that does not adapt to `p` or to the recursive cache structure.
//! The substitution is recorded in DESIGN.md.

use paco_core::matrix::{MatMut, Matrix};
use paco_core::simd::mm_f64;
use rayon::prelude::*;

/// Tile sizes of the baseline kernel (row panel × column panel × depth panel).
const TILE_I: usize = 32;
const TILE_J: usize = 64;
const TILE_K: usize = 64;

/// `C = A · B` for `f64` matrices with a tiled, rayon-parallel kernel.
///
/// Panics unless the inner dimensions agree.
pub fn blocked_parallel_mm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let n = a.rows();
    let k = a.cols();
    let m = b.cols();
    let mut c = Matrix::zeros(n, m);
    if n == 0 || m == 0 || k == 0 {
        return c;
    }

    let (a, b) = (a.as_ref(), b.as_ref());
    // Parallelise over disjoint row panels of C; each worker owns its panel.
    // Every i/k/j block goes through the dispatched `f64` leaf, which keeps
    // each element's ascending-`l` fused multiply-add chain: the product is
    // bit-identical to the scalar `mul_add` loop it replaces (which, outside
    // an FMA-enabled function, was a libm call per element).
    c.data_mut()
        .par_chunks_mut(TILE_I * m)
        .enumerate()
        .for_each(|(panel_idx, c_panel)| {
            let i0 = panel_idx * TILE_I;
            let rows = c_panel.len() / m;
            // SAFETY: `c_panel` is this worker's exclusive `rows × m`
            // row-major chunk of C.
            let mut panel = unsafe { MatMut::from_raw_parts(c_panel.as_mut_ptr(), rows, m, m) };
            for k0 in (0..k).step_by(TILE_K) {
                let depth = TILE_K.min(k - k0);
                for j0 in (0..m).step_by(TILE_J) {
                    let width = TILE_J.min(m - j0);
                    mm_f64(
                        &mut panel.rb().submatrix_mut(0, j0, rows, width),
                        &a.submatrix(i0, k0, rows, depth),
                        &b.submatrix(k0, j0, depth, width),
                    );
                }
            }
        });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::co_mm::mm_reference;
    use paco_core::workload::random_matrix_f64;

    #[test]
    fn parallel_matches_reference() {
        for &(n, m, k) in &[
            (1usize, 1usize, 1usize),
            (40, 70, 30),
            (96, 96, 96),
            (130, 33, 257),
        ] {
            let a = random_matrix_f64(n, k, 3);
            let b = random_matrix_f64(k, m, 4);
            let expect = mm_reference(&a, &b);
            let got = blocked_parallel_mm(&a, &b);
            assert!(expect.approx_eq(&got, 1e-9), "n={n} m={m} k={k}");
            // Bit for bit against the scalar fused loop in the same order.
            let mut scalar = Matrix::zeros(n, m);
            for i in 0..n {
                for l in 0..k {
                    for j in 0..m {
                        let acc = scalar.get(i, j);
                        scalar.set(i, j, a.get(i, l).mul_add(b.get(l, j), acc));
                    }
                }
            }
            let bits = |x: &Matrix<f64>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&got) == bits(&scalar),
                "n={n} m={m} k={k}: not bit-identical"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let a = random_matrix_f64(0, 5, 1);
        let b = random_matrix_f64(5, 3, 2);
        let c = blocked_parallel_mm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 3));
    }
}
