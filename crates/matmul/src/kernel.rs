//! Sequential leaf kernels shared by every matrix-multiplication variant.
//!
//! The paper's experiments force all competitors to call the same sequential
//! kernels for base-case multiplications and additions (MKL `dgemm`/`daxpy` in
//! the paper; these hand-written loops here).  Keeping them in one module makes
//! that sharing explicit and gives the benchmark harness a single place to
//! calibrate per-core peak throughput for the `Rmax/Rpeak` experiment.

use paco_core::matrix::{MatMut, MatRef};
use paco_core::metrics::sched::kernel as kernel_metrics;
use paco_core::semiring::{Ring, Semiring};

/// Base-case threshold: recursions stop splitting a dimension once it is at
/// most this many elements (the paper's CO2 baseline uses 64 as well).  An
/// alias of the hoisted workspace default in [`paco_core::tuning`].
pub const MM_BASE: usize = paco_core::tuning::MM_BASE;

/// `C += A ⊗ B` with an i-k-j loop nest (good spatial locality on row-major
/// data).  This is the only place element arithmetic happens for the
/// classic-MM family.
///
/// Dispatch: a semiring with a
/// [`SpecializedKernel::mm_block`](paco_core::kernel::SpecializedKernel::mm_block)
/// override handles the whole leaf (counted as a simd leaf); everything
/// else runs the generic row-sliced loop.  Three types override it, each
/// through the runtime-selected [`paco_core::simd`] dispatch:
///
/// * `f64` always: same i-k-j reduction order, same fused `mul_add`, so
///   bit-identical to the historical per-element loop;
/// * `MinPlus` and `BoolSemiring` in the `avx512f` mode (Bool also needs
///   avx512bw), declining otherwise.  Same reduction order; `MinPlus`
///   takes each candidate through the compare-select `vminpd`, not
///   `f64::min`, so a `±0.0` tie may keep the other sign bit (the values
///   still compare `==`; see [`paco_core::kernel`]).
///
/// `tests/kernel_agreement.rs` checks all three against the generic loop.
pub fn mm_base<S: Semiring>(c: &mut MatMut<'_, S>, a: &MatRef<'_, S>, b: &MatRef<'_, S>) {
    let n = c.rows();
    let m = c.cols();
    let k = a.cols();
    debug_assert_eq!(a.rows(), n);
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!(b.cols(), m);
    if S::mm_block(c, a, b) {
        kernel_metrics::record_mm_leaf(true);
        return;
    }
    for i in 0..n {
        let ar = a.row(i);
        let cr = c.row_mut(i);
        for (l, &ail) in ar.iter().enumerate() {
            let br = b.row(l);
            for (cj, &blj) in cr.iter_mut().zip(br) {
                *cj = Semiring::mul_add(*cj, ail, blj);
            }
        }
    }
    kernel_metrics::record_mm_leaf(false);
}

/// `C += D` element-wise (the reduction step after a height/Z cut).
///
/// Row-sliced: one bounds computation per row instead of per element, and a
/// slice loop the compiler can unroll/vectorize.
pub fn mat_add_assign<S: Semiring>(c: &mut MatMut<'_, S>, d: &MatRef<'_, S>) {
    debug_assert_eq!(c.rows(), d.rows());
    debug_assert_eq!(c.cols(), d.cols());
    for i in 0..c.rows() {
        let cr = c.row_mut(i);
        for (cj, &dj) in cr.iter_mut().zip(d.row(i)) {
            *cj = cj.add(dj);
        }
    }
}

/// `out = A ⊕ B` element-wise into a pre-sized output window.
pub fn mat_add_into<S: Semiring>(out: &mut MatMut<'_, S>, a: &MatRef<'_, S>, b: &MatRef<'_, S>) {
    debug_assert_eq!(a.rows(), b.rows());
    debug_assert_eq!(a.cols(), b.cols());
    debug_assert_eq!(out.rows(), a.rows());
    debug_assert_eq!(out.cols(), a.cols());
    for i in 0..a.rows() {
        let or = out.row_mut(i);
        for ((oj, &aj), &bj) in or.iter_mut().zip(a.row(i)).zip(b.row(i)) {
            *oj = aj.add(bj);
        }
    }
}

/// `out = A ⊖ B` element-wise (Strassen needs subtraction, hence [`Ring`]).
pub fn mat_sub_into<R: Ring>(out: &mut MatMut<'_, R>, a: &MatRef<'_, R>, b: &MatRef<'_, R>) {
    debug_assert_eq!(a.rows(), b.rows());
    debug_assert_eq!(a.cols(), b.cols());
    for i in 0..a.rows() {
        let or = out.row_mut(i);
        for ((oj, &aj), &bj) in or.iter_mut().zip(a.row(i)).zip(b.row(i)) {
            *oj = aj.sub(bj);
        }
    }
}

/// Copy `src` into `out` (used to seed Strassen's `S₃ = A₀₀`-style operands).
pub fn mat_copy_into<S: Semiring>(out: &mut MatMut<'_, S>, src: &MatRef<'_, S>) {
    out.copy_from(src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::matrix::Matrix;
    use paco_core::semiring::{MinPlus, WrappingRing};
    use paco_core::workload::random_matrix_f64;

    #[test]
    fn mm_base_small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c = Matrix::zeros(2, 2);
        mm_base(&mut c.as_mut(), &a.as_ref(), &b.as_ref());
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn mm_base_accumulates_into_existing_c() {
        let a = Matrix::from_vec(1, 1, vec![WrappingRing(3)]);
        let b = Matrix::from_vec(1, 1, vec![WrappingRing(4)]);
        let mut c = Matrix::from_vec(1, 1, vec![WrappingRing(100)]);
        mm_base(&mut c.as_mut(), &a.as_ref(), &b.as_ref());
        assert_eq!(c.get(0, 0), WrappingRing(112));
    }

    #[test]
    fn mm_base_rectangular_shapes() {
        // (2x3) * (3x4): compare against a manual triple loop.
        let a = random_matrix_f64(2, 3, 1);
        let b = random_matrix_f64(3, 4, 2);
        let mut c = Matrix::zeros(2, 4);
        mm_base(&mut c.as_mut(), &a.as_ref(), &b.as_ref());
        for i in 0..2 {
            for j in 0..4 {
                let mut acc = 0.0;
                for l in 0..3 {
                    acc += a.get(i, l) * b.get(l, j);
                }
                assert!((c.get(i, j) - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn min_plus_semiring_mm_computes_shortest_relaxation() {
        // Adjacency "distances": the (min,+) product gives 2-hop shortest paths.
        let inf = f64::INFINITY;
        let a = Matrix::from_vec(
            2,
            2,
            vec![MinPlus(0.0), MinPlus(1.0), MinPlus(inf), MinPlus(0.0)],
        );
        let mut c = Matrix::zeros(2, 2); // zeros = +inf under MinPlus
        mm_base(&mut c.as_mut(), &a.as_ref(), &a.as_ref());
        assert_eq!(c.get(0, 0), MinPlus(0.0));
        assert_eq!(c.get(0, 1), MinPlus(1.0));
        assert_eq!(c.get(1, 1), MinPlus(0.0));
        assert!(c.get(1, 0).0.is_infinite());
    }

    #[test]
    fn add_sub_copy_helpers() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 3, |i, j| ((i * 3 + j) * 10) as f64);
        let mut sum = Matrix::zeros(3, 3);
        mat_add_into(&mut sum.as_mut(), &a.as_ref(), &b.as_ref());
        let mut diff = Matrix::zeros(3, 3);
        mat_sub_into(&mut diff.as_mut(), &b.as_ref(), &a.as_ref());
        let mut acc = a.clone();
        mat_add_assign(&mut acc.as_mut(), &b.as_ref());
        let mut copy = Matrix::zeros(3, 3);
        mat_copy_into(&mut copy.as_mut(), &a.as_ref());
        for i in 0..3 {
            for j in 0..3 {
                let v = (i * 3 + j) as f64;
                assert_eq!(sum.get(i, j), v + v * 10.0);
                assert_eq!(diff.get(i, j), v * 10.0 - v);
                assert_eq!(acc.get(i, j), v + v * 10.0);
                assert_eq!(copy.get(i, j), v);
            }
        }
    }
}
