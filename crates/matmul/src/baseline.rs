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

use paco_core::matrix::Matrix;
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

    let a_data = a.data();
    let b_data = b.data();
    // Parallelise over disjoint row panels of C; each worker owns its panel.
    c.data_mut()
        .par_chunks_mut(TILE_I * m)
        .enumerate()
        .for_each(|(panel_idx, c_panel)| {
            let i0 = panel_idx * TILE_I;
            let i1 = (i0 + TILE_I).min(n);
            for k0 in (0..k).step_by(TILE_K) {
                let k1 = (k0 + TILE_K).min(k);
                for j0 in (0..m).step_by(TILE_J) {
                    let j1 = (j0 + TILE_J).min(m);
                    for i in i0..i1 {
                        let c_row = &mut c_panel[(i - i0) * m..(i - i0) * m + m];
                        let a_row = &a_data[i * k..(i + 1) * k];
                        for l in k0..k1 {
                            let ail = a_row[l];
                            let b_row = &b_data[l * m..(l + 1) * m];
                            for j in j0..j1 {
                                c_row[j] = ail.mul_add(b_row[j], c_row[j]);
                            }
                        }
                    }
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
